// Package optimize provides the quasi-Newton optimizer GRAPE trains with:
// limited-memory BFGS (L-BFGS, Nocedal & Wright Algorithm 7.5) over the
// last ten steps, with a strong-Wolfe line search. It stands in for the
// dense BFGS the paper selects from its §IV-D menu (DESIGN.md,
// "Substitutions"). It minimizes a smooth objective over ℝⁿ and stops on a
// target cost, gradient tolerance or iteration cap.
package optimize

import "math"

// Objective is a smooth function with gradient. Gradient fills grad (which
// has len(x)) and returns the cost at x, so single-pass implementations can
// share work between value and derivative.
//
// Call protocol of the line search: Evaluate runs at every trial point,
// and Gradient runs at that same x only when the search needs the slope
// there (a point passing sufficient decrease) or accepts it. Implementations
// whose value and gradient share a forward pass should therefore cache it
// by x, so the later Gradient pays only for the derivative. Evaluate(x)
// must return exactly Gradient(x, ·)'s cost, or the search's decisions
// depend on which of the two priced a point.
type Objective interface {
	Evaluate(x []float64) float64
	Gradient(x, grad []float64) float64
}

// lbfgsMemory is the number of (s, y) pairs L-BFGS keeps.
const lbfgsMemory = 10

// Options controls a run. Zero values select documented defaults.
type Options struct {
	MaxIterations int     // default 500
	TargetCost    float64 // stop when cost ≤ TargetCost (default 0: disabled)
	GradTol       float64 // stop when ‖∇f‖∞ ≤ GradTol (default 1e-9)
	// IterHook, when set, is called after every accepted iteration with
	// the iteration index, the new cost, and the step norm ‖x_{k+1}−x_k‖.
	// It must be fast and must not retain its arguments; a nil hook costs
	// a single pointer check per iteration (the step norm is only
	// computed when a hook is installed).
	IterHook func(iter int, cost, stepNorm float64)
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 500
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-9
	}
	return o
}

// Result reports a finished run.
type Result struct {
	X          []float64
	Cost       float64
	Iterations int
	FuncEvals  int
	Converged  bool   // TargetCost or GradTol reached
	Reason     string // human-readable stop reason
}

// runState counts a run's objective evaluations across line searches.
type runState struct {
	evals int
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
