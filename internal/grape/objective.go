package grape

import (
	"math"
	"math/rand"

	"accqoc/internal/cmat"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
)

// objective implements optimize.Objective over the flattened amplitude
// vector x[s*nc+c].
//
// All scratch state lives in a per-Compile arena allocated once in
// newObjective and reused across every optimizer call, so steady-state
// Evaluate/Gradient calls allocate nothing. The forward pass (per-segment
// eigendecompositions, propagators and cumulative products) is cached by
// input vector: the line search prices every trial point with Evaluate and
// asks for the gradient at the same x only where it reads the slope or
// accepts the point (the optimize.Objective call protocol), and that
// Gradient call repeats no propagation.
type objective struct {
	sys    *hamiltonian.System
	target *cmat.Matrix
	dt     float64
	nSeg   int
	nCtl   int
	opts   Options

	targetDag *cmat.Matrix

	// Per-segment arena: segment s touches only index-s buffers.
	h      []*cmat.Matrix          // assembled Hamiltonian
	eigs   []*cmat.HermitianEigen  // spectral decomposition of h
	ws     []*cmat.JacobiWorkspace // eigensolver scratch
	vDag   []*cmat.Matrix          // Dagger(eigs.Vectors), cached for the gradient
	expMu  [][]complex128          // e^{−i·dt·λ} per eigenvalue
	props  []*cmat.Matrix          // segment propagator U_s
	fwd    []*cmat.Matrix          // U_s···U_1
	bwd    []*cmat.Matrix          // U_N···U_{s+1} (gradient only)
	segScr []*cmat.Matrix          // per-segment propagator-assembly scratch

	// Sequential gradient scratch.
	left, rl, t1, m, w, t2, s2, id *cmat.Matrix

	// ctlNZ caches each control operator's nonzero structure. Drive
	// Hamiltonians are embedded Paulis — n nonzeros out of n² — so the
	// per-control gradient contraction Σ Hc[r][s]·S[r][s] is O(n) instead
	// of two dense matrix products.
	ctlNZ []sparseCtl

	// Forward-pass cache: eigs/vDag/expMu/props/fwd are valid for lastX.
	lastX    []float64
	fwdValid bool
}

// sparseCtl is one control operator in coordinate form: entry k is
// Hc[idx[k]/n][idx[k]%n] = val[k].
type sparseCtl struct {
	idx []int
	val []complex128
}

func sparsify(ctl *cmat.Matrix) sparseCtl {
	n := ctl.Rows
	var sc sparseCtl
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := ctl.Data[r*n+c]
			if v == 0 {
				continue
			}
			sc.idx = append(sc.idx, r*n+c)
			sc.val = append(sc.val, v)
		}
	}
	return sc
}

func newObjective(sys *hamiltonian.System, target *cmat.Matrix, duration float64, opts Options) *objective {
	n := sys.Dim
	o := &objective{
		sys:       sys,
		target:    target,
		dt:        duration / float64(opts.Segments),
		nSeg:      opts.Segments,
		nCtl:      len(sys.Controls),
		opts:      opts,
		targetDag: cmat.Dagger(target),
		left:      cmat.New(n, n),
		rl:        cmat.New(n, n),
		t1:        cmat.New(n, n),
		m:         cmat.New(n, n),
		w:         cmat.New(n, n),
		t2:        cmat.New(n, n),
		s2:        cmat.New(n, n),
		id:        cmat.Identity(n),
	}
	o.ctlNZ = make([]sparseCtl, o.nCtl)
	for c, ctl := range sys.Controls {
		o.ctlNZ[c] = sparsify(ctl)
	}
	o.h = make([]*cmat.Matrix, o.nSeg)
	o.eigs = make([]*cmat.HermitianEigen, o.nSeg)
	o.ws = make([]*cmat.JacobiWorkspace, o.nSeg)
	o.vDag = make([]*cmat.Matrix, o.nSeg)
	o.expMu = make([][]complex128, o.nSeg)
	o.props = make([]*cmat.Matrix, o.nSeg)
	o.fwd = make([]*cmat.Matrix, o.nSeg)
	o.bwd = make([]*cmat.Matrix, o.nSeg)
	o.segScr = make([]*cmat.Matrix, o.nSeg)
	for s := 0; s < o.nSeg; s++ {
		o.h[s] = cmat.New(n, n)
		o.eigs[s] = cmat.NewHermitianEigen(n)
		o.ws[s] = cmat.NewJacobiWorkspace(n)
		o.vDag[s] = cmat.New(n, n)
		o.expMu[s] = make([]complex128, n)
		o.props[s] = cmat.New(n, n)
		o.fwd[s] = cmat.New(n, n)
		o.bwd[s] = cmat.New(n, n)
		o.segScr[s] = cmat.New(n, n)
	}
	o.lastX = make([]float64, o.nSeg*o.nCtl)
	return o
}

func (o *objective) initialVector(seed *pulse.Pulse) []float64 {
	if seed == nil {
		return o.randomInit(o.opts.Seed)
	}
	x := make([]float64, o.nSeg*o.nCtl)
	rs := seed.Resample(o.nSeg, o.dt)
	rs.Clip(o.sys.MaxAmp)
	for s := 0; s < o.nSeg; s++ {
		for c := 0; c < o.nCtl && c < rs.Channels(); c++ {
			x[s*o.nCtl+c] = rs.Amps[c][s]
		}
	}
	return x
}

// randomInit draws the small deterministic random start used for cold
// starts and restart attempts; distinct seeds give independent draws on the
// same objective (and arena).
func (o *objective) randomInit(seed int64) []float64 {
	x := make([]float64, o.nSeg*o.nCtl)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range x {
		x[i] = 0.1 * o.sys.MaxAmp * (2*rng.Float64() - 1)
	}
	return x
}

func (o *objective) vectorToPulse(x []float64) *pulse.Pulse {
	p := pulse.New(o.sys.ControlNames, o.nSeg, o.dt)
	for s := 0; s < o.nSeg; s++ {
		for c := 0; c < o.nCtl; c++ {
			p.Amps[c][s] = x[s*o.nCtl+c]
		}
	}
	return p
}

// segmentForward fills segment s of the arena from x: Hamiltonian,
// eigendecomposition, e^{−i·dt·λ} values and the propagator
// U_s = V·diag(e^{−i·dt·λ})·V†.
func (o *objective) segmentForward(s int, x []float64) error {
	amps := x[s*o.nCtl : (s+1)*o.nCtl]
	// Sparse assembly: H = Drift + Σ u_c·H_c touching only the controls'
	// nonzero entries (n per embedded Pauli) instead of n² per control.
	h := o.h[s]
	h.CopyFrom(o.sys.Drift)
	for c, a := range amps {
		if a == 0 {
			continue
		}
		nz := &o.ctlNZ[c]
		ac := complex(a, 0)
		for k, idx := range nz.idx {
			h.Data[idx] += ac * nz.val[k]
		}
	}
	// Trusted solve: H is a real combination of operators Validate already
	// proved Hermitian, so the per-call Hermiticity scan is skipped.
	if err := cmat.EigenHermitianIntoTrusted(o.h[s], o.ws[s], o.eigs[s]); err != nil {
		return err
	}
	e := o.eigs[s]
	cmat.DaggerInto(o.vDag[s], e.Vectors)
	em := o.expMu[s]
	for i, l := range e.Values {
		sin, cos := math.Sincos(-o.dt * l)
		em[i] = complex(cos, sin)
	}
	n := o.sys.Dim
	v, scr := e.Vectors, o.segScr[s]
	for j := 0; j < n; j++ {
		fl := em[j]
		for i := 0; i < n; i++ {
			scr.Data[i*n+j] = v.Data[i*n+j] * fl
		}
	}
	cmat.MulInto(o.props[s], scr, o.vDag[s])
	return nil
}

// forward brings the arena's per-segment state and cumulative products up
// to date for x, reusing the previous pass when x is unchanged. Returns
// false when a segment Hamiltonian fails to diagonalize (the caller
// reports +Inf cost).
func (o *objective) forward(x []float64) bool {
	if o.fwdValid && equalVec(o.lastX, x) {
		return true
	}
	o.fwdValid = false
	for s := 0; s < o.nSeg; s++ {
		if err := o.segmentForward(s, x); err != nil {
			return false
		}
	}
	// Cumulative products are inherently sequential: fwd[s] = U_s···U_1.
	cmat.MulInto(o.fwd[0], o.props[0], o.id)
	for s := 1; s < o.nSeg; s++ {
		cmat.MulInto(o.fwd[s], o.props[s], o.fwd[s-1])
	}
	copy(o.lastX, x)
	o.fwdValid = true
	return true
}

func equalVec(a, b []float64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Evaluate returns 1 − F + amplitude penalty.
func (o *objective) Evaluate(x []float64) float64 {
	if !o.forward(x) {
		return math.Inf(1)
	}
	g := cmat.TraceMulDagger(o.target, o.fwd[o.nSeg-1])
	d := float64(o.sys.Dim)
	f := (real(g)*real(g) + imag(g)*imag(g)) / (d * d)
	return 1 - f + o.ampPenalty(x, nil)
}

// Gradient computes the cost and its exact derivative.
//
// It exploits trace cyclicity: with L_s = V†target·bwd[s] and
// R_s = fwd[s−1],
//
//	∂G/∂u_{s,c} = Tr(L_s · dU_s · R_s) = Tr((R_s·L_s) · dU_s)
//
// and in the eigenbasis of the segment Hamiltonian (dU = V·B_c·V† with
// B_c = Γ ∘ (V†·(−i·dt·H_c)·V)) this becomes Σᵢⱼ M[i][j]·B_c[j][i] with the
// per-segment M = V†·(R_s·L_s)·V shared across controls. Γ reuses the
// e^{μ} values already computed for the propagator.
func (o *objective) Gradient(x, grad []float64) float64 {
	n := o.sys.Dim
	d := float64(n)
	if !o.forward(x) {
		for i := range grad {
			grad[i] = 0
		}
		return math.Inf(1)
	}
	// Backward cumulative products: bwd[s] = U_{N-1}···U_{s+1}
	// (bwd[N-1] = I), 0-indexed.
	o.bwd[o.nSeg-1].SetIdentity()
	for s := o.nSeg - 1; s > 0; s-- {
		cmat.MulInto(o.bwd[s-1], o.bwd[s], o.props[s])
	}
	g := cmat.TraceMulDagger(o.target, o.fwd[o.nSeg-1])
	f := (real(g)*real(g) + imag(g)*imag(g)) / (d * d)

	for s := 0; s < o.nSeg; s++ {
		cmat.MulInto(o.left, o.targetDag, o.bwd[s])
		right := o.id
		if s > 0 {
			right = o.fwd[s-1]
		}
		cmat.MulInto(o.rl, right, o.left)

		// Eigenbasis derivative, restructured so all O(n³) work is shared
		// across controls. With M = V†·(R·L)·V and
		// W[j][i] = M[i][j]·(−i·dt)·Γ[j][i],
		//
		//	dG_c = Σᵢⱼ M[i][j]·(−i·dt·Γ[j][i]·(V†·H_c·V)[j][i])
		//	     = Σᵣₛ Hc[r][s] · S[r][s],  S = conj(V)·(W·Vᵀ)
		//
		// so each control costs only its nonzero count.
		v := o.eigs[s].Vectors
		vDag := o.vDag[s]
		cmat.MulInto(o.t1, o.rl, v)
		cmat.MulInto(o.m, vDag, o.t1)
		em := o.expMu[s]
		vals := o.eigs[s].Values
		for j := 0; j < n; j++ {
			muj := -o.dt * vals[j]
			for i := 0; i < n; i++ {
				// Γ[j][i] = (e^{μj} − e^{μi})/(μj − μi) with μ = −i·dt·λ
				// purely imaginary, so the division is a cheap
				// multiply-by-(−i/y) instead of a full complex division.
				var gamma complex128
				y := muj - (-o.dt * vals[i])
				if y*y < 1e-20 {
					gamma = em[j]
				} else {
					num := em[j] - em[i]
					gamma = complex(imag(num)/y, -real(num)/y)
				}
				o.w.Data[j*n+i] = o.m.Data[i*n+j] * complex(0, -o.dt) * gamma
			}
		}
		cmat.MulABtInto(o.t2, o.w, v)   // T = W·Vᵀ
		cmat.MulConjInto(o.s2, v, o.t2) // S = conj(V)·T
		for c := 0; c < o.nCtl; c++ {
			nz := &o.ctlNZ[c]
			var dG complex128
			for k, idx := range nz.idx {
				dG += nz.val[k] * o.s2.Data[idx]
			}
			grad[s*o.nCtl+c] = -(2 / (d * d)) * (real(g)*real(dG) + imag(g)*imag(dG))
		}
	}
	return 1 - f + o.ampPenalty(x, grad)
}

// ampPenalty adds a soft quadratic wall beyond ±MaxAmp; if grad is non-nil
// the penalty derivative is accumulated into it.
func (o *objective) ampPenalty(x []float64, grad []float64) float64 {
	const w = ampPenaltyWeight
	umax := o.sys.MaxAmp
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
