// Package grape implements GRAPE (GRadient Ascent Pulse Engineering,
// Khaneja et al. 2005): piecewise-constant control pulses are optimized so
// the system's time-ordered propagator reaches a target unitary. This is
// the QOC engine of the paper (§II-D, §IV-D): exact unitary propagation
// through Hermitian eigendecomposition, the exact gradient (the eigenbasis
// Fréchet derivative of each segment propagator), L-BFGS via package
// optimize (the paper picks dense BFGS; DESIGN.md, "Substitutions"), warm
// starts from previously trained pulses (§V-B), and binary search over the
// pulse latency (§IV-D).
//
// The evaluation core is allocation-free in steady state: each Compile owns
// an arena of per-segment buffers (see objective.go) reused across every
// optimizer call.
package grape

import (
	"fmt"
	"math"

	"accqoc/internal/cmat"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/optimize"
	"accqoc/internal/pulse"
)

// ampPenaltyWeight scales the soft quadratic wall the cost adds beyond
// ±MaxAmp (see objective.ampPenalty).
const ampPenaltyWeight = 10

// Options configures a compilation.
type Options struct {
	Segments         int     // piecewise-constant slices (default 24)
	MaxIterations    int     // optimizer cap (default 1000)
	TargetInfidelity float64 // stop when 1−F ≤ this (default 1e-4, the paper's cost target)
	Seed             int64   // deterministic random init
	// Restarts retries non-converged optimizations from fresh random
	// initializations (default 2; pass -1 to disable). GRAPE landscapes
	// have saddle plateaus; multi-start is the standard mitigation.
	// Iterations are summed across attempts so compile-cost accounting
	// stays honest.
	Restarts int
	// IterationHook, when set, observes every accepted optimizer iteration
	// across all restart attempts: the current infidelity (cost) and the
	// step norm ‖Δx‖₂. Observability taps it to feed convergence
	// histograms; it must be fast, allocation-free, and must not retain
	// references. Nil costs one pointer check per iteration and leaves
	// results bit-identical.
	IterationHook func(infidelity, stepNorm float64)
}

func (o Options) withDefaults() Options {
	if o.Segments == 0 {
		o.Segments = 24
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1000
	}
	if o.TargetInfidelity == 0 {
		o.TargetInfidelity = 1e-4
	}
	switch {
	case o.Restarts == 0:
		o.Restarts = 2
	case o.Restarts < 0:
		o.Restarts = 0
	}
	return o
}

// Result is one finished pulse optimization.
type Result struct {
	Pulse        *pulse.Pulse
	Infidelity   float64 // 1 − |Tr(V†U)|²/d²
	Iterations   int
	FuncEvals    int
	Converged    bool
	FinalUnitary *cmat.Matrix
}

// Fidelity is the phase-insensitive overlap |Tr(V†U)|²/d².
func Fidelity(u, v *cmat.Matrix) float64 {
	d := float64(u.Rows)
	g := cmat.TraceMulDagger(v, u)
	return (real(g)*real(g) + imag(g)*imag(g)) / (d * d)
}

// Compile optimizes a pulse of the given duration (ns) toward the target
// unitary. seed, when non-nil, warm-starts the optimization: it is
// resampled onto this problem's grid — the mechanism behind the paper's
// similarity-accelerated training. A nil seed starts from small
// deterministic random amplitudes.
func Compile(sys *hamiltonian.System, target *cmat.Matrix, duration float64, opts Options, seed *pulse.Pulse) (*Result, error) {
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if target.Rows != sys.Dim || target.Cols != sys.Dim {
		return nil, fmt.Errorf("grape: target %dx%d does not match system dim %d", target.Rows, target.Cols, sys.Dim)
	}
	if !cmat.IsUnitary(target, 1e-8) {
		return nil, fmt.Errorf("grape: target is not unitary")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("grape: non-positive duration %v", duration)
	}

	obj := newObjective(sys, target, duration, opts)
	var best *Result
	totalIters, totalEvals := 0, 0
	for attempt := 0; attempt <= opts.Restarts; attempt++ {
		var x0 []float64
		if attempt == 0 {
			x0 = obj.initialVector(seed)
		} else {
			// Fresh deterministic random init per restart, drawn straight
			// from the one objective (and its arena) instead of building a
			// throwaway objective per attempt.
			x0 = obj.randomInit(opts.Seed + int64(attempt)*7919)
		}
		oopts := optimize.Options{
			MaxIterations: opts.MaxIterations,
			TargetCost:    opts.TargetInfidelity,
			GradTol:       1e-12,
		}
		if opts.IterationHook != nil {
			hook := opts.IterationHook
			oopts.IterHook = func(_ int, cost, stepNorm float64) { hook(cost, stepNorm) }
		}
		res := optimize.Minimize(obj, x0, oopts)
		totalIters += res.Iterations
		totalEvals += res.FuncEvals
		p := obj.vectorToPulse(res.X)
		p.Clip(sys.MaxAmp)
		final := Propagate(sys, p)
		inf := 1 - Fidelity(final, target)
		if best == nil || inf < best.Infidelity {
			best = &Result{
				Pulse:        p,
				Infidelity:   inf,
				Converged:    inf <= opts.TargetInfidelity,
				FinalUnitary: final,
			}
		}
		if best.Converged {
			break
		}
	}
	best.Iterations = totalIters
	best.FuncEvals = totalEvals
	return best, nil
}

// Propagate computes the exact time-ordered propagator of a pulse on a
// system: U = U_N···U_1 with U_s = exp(−i·H(u_s)·dt).
func Propagate(sys *hamiltonian.System, p *pulse.Pulse) *cmat.Matrix {
	n := sys.Dim
	ws := cmat.NewJacobiWorkspace(n)
	eig := cmat.NewHermitianEigen(n)
	h := cmat.New(n, n)
	vDag := cmat.New(n, n)
	scr := cmat.New(n, n)
	step := cmat.New(n, n)
	tmp := cmat.New(n, n)
	u := cmat.Identity(n)
	amps := make([]float64, len(sys.Controls))
	expStep := func(l float64) complex128 {
		sin, cos := math.Sincos(-p.Dt * l)
		return complex(cos, sin)
	}
	for s := 0; s < p.Segments(); s++ {
		for c := range amps {
			amps[c] = p.Amps[c][s]
		}
		sys.AssembleInto(h, amps)
		if err := cmat.EigenHermitianInto(h, ws, eig); err != nil {
			// H is Hermitian by construction; Jacobi cannot fail on it in
			// practice. Degrade loudly rather than silently.
			panic(fmt.Sprintf("grape: propagator eigensolve failed: %v", err))
		}
		cmat.DaggerInto(vDag, eig.Vectors)
		eig.ApplyFuncInto(step, scr, vDag, expStep)
		cmat.MulInto(tmp, step, u)
		u, tmp = tmp, u
	}
	return u
}
