// Package optimize provides the quasi-Newton optimizers GRAPE trains with:
// dense BFGS, the method the paper selects from its §IV-D menu, and
// limited-memory L-BFGS, both with one strong-Wolfe line search. Both
// minimize a smooth objective over ℝⁿ and stop on a target cost, gradient
// tolerance, iteration cap or wall-clock budget.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Objective is a smooth function with gradient. Gradient fills grad (which
// has len(x)) and returns the cost at x, so single-pass implementations can
// share work between value and derivative.
//
// Call protocol of the BFGS and L-BFGS line search: Evaluate runs at every
// trial point, and Gradient runs at that same x only when the search needs
// the slope there (a point passing sufficient decrease) or accepts it — on
// the GRAPE objective about one trial point in three. Implementations whose
// value and gradient share a forward pass should therefore cache it by x,
// so the later Gradient pays only for the derivative. Evaluate(x) must
// return exactly Gradient(x, ·)'s cost, or the search's decisions depend
// on which of the two priced a point.
type Objective interface {
	Evaluate(x []float64) float64
	Gradient(x, grad []float64) float64
}

// Method names an optimizer.
type Method string

// Supported methods.
const (
	BFGS  Method = "bfgs"
	LBFGS Method = "l-bfgs"
)

// lbfgsMemory is the number of (s, y) pairs L-BFGS keeps.
const lbfgsMemory = 10

// Options controls a run. Zero values select documented defaults.
type Options struct {
	MaxIterations int           // default 500
	TargetCost    float64       // stop when cost ≤ TargetCost (default 0: disabled)
	GradTol       float64       // stop when ‖∇f‖∞ ≤ GradTol (default 1e-9)
	TimeBudget    time.Duration // wall-clock cap (default: none). Mirrors the paper's 600 s budget knob.
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

// ErrUnknownMethod is returned by Minimize for unsupported method names.
var ErrUnknownMethod = errors.New("optimize: unknown method")

// Minimize dispatches on method.
func Minimize(method Method, obj Objective, x0 []float64, opts Options) (*Result, error) {
	switch method {
	case BFGS:
		return MinimizeBFGS(obj, x0, opts), nil
	case LBFGS:
		return MinimizeLBFGS(obj, x0, opts), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, method)
	}
}

type runState struct {
	opts      Options
	deadline  time.Time
	hasBudget bool
	evals     int
}

func newRunState(opts Options) *runState {
	s := &runState{opts: opts}
	if opts.TimeBudget > 0 {
		s.deadline = time.Now().Add(opts.TimeBudget)
		s.hasBudget = true
	}
	return s
}

func (s *runState) expired() bool {
	return s.hasBudget && time.Now().After(s.deadline)
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
