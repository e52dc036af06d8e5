package grape

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/hamiltonian"
)

// refEvaluate is a straightforward per-call reference of the objective's
// cost: every matrix is freshly allocated through the public cmat API, no
// arena, no caching. It mirrors the objective's operation
// sequence exactly, so the workspace path must reproduce it bit for bit.
func refEvaluate(sys *hamiltonian.System, target *cmat.Matrix, dt float64, nSeg, nCtl int, ampW float64, x []float64) float64 {
	u := cmat.Identity(sys.Dim)
	amps := make([]float64, nCtl)
	for s := 0; s < nSeg; s++ {
		copy(amps, x[s*nCtl:(s+1)*nCtl])
		h := sys.Assemble(amps)
		e := cmat.NewHermitianEigen(sys.Dim)
		if err := cmat.EigenHermitianInto(h, cmat.NewJacobiWorkspace(sys.Dim), e); err != nil {
			return math.Inf(1)
		}
		step := e.ApplyFunc(func(l float64) complex128 {
			sin, cos := math.Sincos(-dt * l)
			return complex(cos, sin)
		})
		u = cmat.Mul(step, u)
	}
	g := cmat.TraceMulDagger(target, u)
	d := float64(sys.Dim)
	f := (real(g)*real(g) + imag(g)*imag(g)) / (d * d)
	return 1 - f + refPenalty(sys, ampW, x, nil)
}

// refGradient is the per-call reference of the exact-mode gradient: same
// formulas as objective.Gradient, fresh allocations throughout.
func refGradient(sys *hamiltonian.System, target *cmat.Matrix, dt float64, nSeg, nCtl int, ampW float64, x, grad []float64) float64 {
	n := sys.Dim
	d := float64(n)
	targetDag := cmat.Dagger(target)
	props := make([]*cmat.Matrix, nSeg)
	eigs := make([]*cmat.HermitianEigen, nSeg)
	vDags := make([]*cmat.Matrix, nSeg)
	expMu := make([][]complex128, nSeg)
	amps := make([]float64, nCtl)
	for s := 0; s < nSeg; s++ {
		copy(amps, x[s*nCtl:(s+1)*nCtl])
		h := sys.Assemble(amps)
		e := cmat.NewHermitianEigen(sys.Dim)
		if err := cmat.EigenHermitianInto(h, cmat.NewJacobiWorkspace(sys.Dim), e); err != nil {
			return math.Inf(1)
		}
		eigs[s] = e
		vDags[s] = cmat.Dagger(e.Vectors)
		em := make([]complex128, n)
		for i, l := range e.Values {
			sin, cos := math.Sincos(-dt * l)
			em[i] = complex(cos, sin)
		}
		expMu[s] = em
		scr := cmat.New(n, n)
		props[s] = cmat.New(n, n)
		eigs[s].ApplyFuncInto(props[s], scr, vDags[s], func(l float64) complex128 {
			sin, cos := math.Sincos(-dt * l)
			return complex(cos, sin)
		})
	}
	fwd := make([]*cmat.Matrix, nSeg)
	fwd[0] = cmat.Mul(props[0], cmat.Identity(n))
	for s := 1; s < nSeg; s++ {
		fwd[s] = cmat.Mul(props[s], fwd[s-1])
	}
	bwd := make([]*cmat.Matrix, nSeg)
	bwd[nSeg-1] = cmat.Identity(n)
	for s := nSeg - 1; s > 0; s-- {
		bwd[s-1] = cmat.Mul(bwd[s], props[s])
	}
	g := cmat.TraceMulDagger(target, fwd[nSeg-1])
	f := (real(g)*real(g) + imag(g)*imag(g)) / (d * d)

	id := cmat.Identity(n)
	for s := 0; s < nSeg; s++ {
		left := cmat.Mul(targetDag, bwd[s])
		right := id
		if s > 0 {
			right = fwd[s-1]
		}
		rl := cmat.Mul(right, left)
		v := eigs[s].Vectors
		m := cmat.Mul(vDags[s], cmat.Mul(rl, v))
		em := expMu[s]
		vals := eigs[s].Values
		w := cmat.New(n, n)
		for j := 0; j < n; j++ {
			muj := -dt * vals[j]
			for i := 0; i < n; i++ {
				var gamma complex128
				y := muj - (-dt * vals[i])
				if y*y < 1e-20 {
					gamma = em[j]
				} else {
					num := em[j] - em[i]
					gamma = complex(imag(num)/y, -real(num)/y)
				}
				w.Data[j*n+i] = m.Data[i*n+j] * complex(0, -dt) * gamma
			}
		}
		t2 := cmat.New(n, n)
		s2 := cmat.New(n, n)
		cmat.MulABtInto(t2, w, v)
		cmat.MulConjInto(s2, v, t2)
		for c := 0; c < nCtl; c++ {
			nz := sparsify(sys.Controls[c])
			var dG complex128
			for k, idx := range nz.idx {
				dG += nz.val[k] * s2.Data[idx]
			}
			grad[s*nCtl+c] = -(2 / (d * d)) * (real(g)*real(dG) + imag(g)*imag(dG))
		}
	}
	return 1 - f + refPenalty(sys, ampW, x, grad)
}

func refPenalty(sys *hamiltonian.System, w float64, x, grad []float64) float64 {
	umax := sys.MaxAmp
	var pen float64
	for i, u := range x {
		over := math.Abs(u) - umax
		if over <= 0 {
			continue
		}
		r := over / umax
		pen += w * r * r
		if grad != nil {
			g := 2 * w * r / umax
			if u < 0 {
				g = -g
			}
			grad[i] += g
		}
	}
	return pen
}

// TestWorkspacePathMatchesPerCallReference asserts that the arena-backed
// objective — buffer reuse, cached forward pass, shared Evaluate/Gradient
// propagation — produces bit-identical costs and gradients to the
// allocate-everything per-call reference, across repeated calls on a fixed
// seed.
func TestWorkspacePathMatchesPerCallReference(t *testing.T) {
	for name, setup := range map[string]struct {
		sys      *hamiltonian.System
		target   *cmat.Matrix
		duration float64
	}{
		"1q-h":  {oneQ(), gateU(t, gate.H), 60},
		"2q-cx": {twoQ(), gateU(t, gate.CX), 400},
	} {
		opts := Options{Segments: 8, Seed: 17}.withDefaults()
		obj := newObjective(setup.sys, setup.target, setup.duration, opts)
		rng := rand.New(rand.NewSource(99))
		x := obj.initialVector(nil)
		grad := make([]float64, len(x))
		refGrad := make([]float64, len(x))
		for trial := 0; trial < 4; trial++ {
			// Include an over-amplitude point so the penalty path is covered.
			if trial == 3 {
				for i := range x {
					x[i] = 2 * setup.sys.MaxAmp * (2*rng.Float64() - 1)
				}
			}
			ev := obj.Evaluate(x)
			refEv := refEvaluate(setup.sys, setup.target, obj.dt, obj.nSeg, obj.nCtl, ampPenaltyWeight, x)
			if ev != refEv {
				t.Fatalf("%s trial %d: Evaluate %v != reference %v", name, trial, ev, refEv)
			}
			// Gradient at the same x exercises the shared forward pass;
			// cost and gradient must still match the reference exactly.
			cost := obj.Gradient(x, grad)
			refCost := refGradient(setup.sys, setup.target, obj.dt, obj.nSeg, obj.nCtl, ampPenaltyWeight, x, refGrad)
			if cost != refCost {
				t.Fatalf("%s trial %d: Gradient cost %v != reference %v", name, trial, cost, refCost)
			}
			for i := range grad {
				if grad[i] != refGrad[i] {
					t.Fatalf("%s trial %d: grad[%d] = %v != reference %v", name, trial, i, grad[i], refGrad[i])
				}
			}
			for i := range x {
				x[i] += 0.001 * (2*rng.Float64() - 1)
			}
		}
	}
}

// TestObjectiveZeroAlloc pins the arena's promise: once built, the 2Q
// objective's Evaluate and Gradient allocate nothing per call, whatever
// GOMAXPROCS is.
func TestObjectiveZeroAlloc(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	obj := newObjective(twoQ(), gateU(t, gate.CX), 500, Options{}.withDefaults())
	x := obj.initialVector(nil)
	grad := make([]float64, len(x))
	// Perturb before every call so the forward-pass cache cannot skip the
	// propagation being measured.
	if n := testing.AllocsPerRun(20, func() {
		x[0] += 1e-12
		obj.Gradient(x, grad)
	}); n != 0 {
		t.Errorf("Gradient: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		x[0] += 1e-12
		obj.Evaluate(x)
	}); n != 0 {
		t.Errorf("Evaluate: %v allocs per call, want 0", n)
	}
}

// TestGradientFiniteDifferenceBothModes checks the exact gradient against
// central differences at tolerance 1e-6, on one- and two-qubit systems at
// working segment lengths, every component. (The name dates from a second,
// first-order gradient formula, since deleted.)
func TestGradientFiniteDifferenceBothModes(t *testing.T) {
	cases := []struct {
		name     string
		sys      *hamiltonian.System
		target   *cmat.Matrix
		duration float64
	}{
		{"exact-1q", oneQ(), gateU(t, gate.H), 60},
		{"exact-2q", twoQ(), gateU(t, gate.CX), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Segments: 8, Seed: 11}.withDefaults()
			obj := newObjective(tc.sys, tc.target, tc.duration, opts)
			x := obj.initialVector(nil)
			for i := range x {
				x[i] += 0.007 * float64(i%5)
			}
			grad := make([]float64, len(x))
			obj.Gradient(x, grad)

			const h = 1e-6
			const tol = 1e-6
			xp := make([]float64, len(x))
			xm := make([]float64, len(x))
			for i := range x {
				copy(xp, x)
				copy(xm, x)
				xp[i] += h
				xm[i] -= h
				fd := (obj.Evaluate(xp) - obj.Evaluate(xm)) / (2 * h)
				if math.Abs(fd-grad[i]) > tol*(1+math.Abs(fd)) {
					t.Errorf("grad[%d] = %v, central difference %v (|Δ| = %.3g)",
						i, grad[i], fd, math.Abs(fd-grad[i]))
				}
			}
		})
	}
}

// TestRestartsReuseObjective pins the restart path behavior: restart
// initializations must be deterministic and distinct per attempt, drawn
// from the shared objective.
func TestRestartsReuseObjective(t *testing.T) {
	sys := oneQ()
	target := gateU(t, gate.H)
	opts := Options{Segments: 10, Seed: 42}.withDefaults()
	obj := newObjective(sys, target, 50, opts)
	a1 := obj.randomInit(opts.Seed + 7919)
	a2 := obj.randomInit(opts.Seed + 2*7919)
	b1 := obj.randomInit(opts.Seed + 7919)
	same, diff := true, false
	for i := range a1 {
		if a1[i] != b1[i] {
			same = false
		}
		if a1[i] != a2[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("randomInit not deterministic for equal seeds")
	}
	if !diff {
		t.Fatal("randomInit identical across attempts")
	}
	// Infeasible target in a tiny duration forces the restart loop through
	// all attempts on the one shared objective.
	res, err := Compile(twoQ(), gateU(t, gate.CX), 50,
		Options{Segments: 6, MaxIterations: 30, Seed: 13, Restarts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("CX in 50 ns cannot converge")
	}
}
