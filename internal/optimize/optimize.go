// Package optimize provides the gradient-based optimizers GRAPE needs:
// gradient descent, ADAM, BFGS and L-BFGS with a strong-Wolfe line search —
// the menu the paper lists in §IV-D (it selects BFGS). All methods minimize
// a smooth objective over ℝⁿ and stop on a target cost, gradient tolerance,
// iteration cap or wall-clock budget.
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
	GD    Method = "gd"
	ADAM  Method = "adam"
	BFGS  Method = "bfgs"
	LBFGS Method = "l-bfgs"
)

// Options controls a run. Zero values select documented defaults.
type Options struct {
	MaxIterations int           // default 500
	TargetCost    float64       // stop when cost ≤ TargetCost (default 0: disabled)
	GradTol       float64       // stop when ‖∇f‖∞ ≤ GradTol (default 1e-9)
	TimeBudget    time.Duration // wall-clock cap (default: none). Mirrors the paper's 600 s budget knob.
	LearningRate  float64       // GD/ADAM step size (default 0.1)
	Memory        int           // L-BFGS history (default 10)
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
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.Memory == 0 {
		o.Memory = 10
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
	case GD:
		return GradientDescent(obj, x0, opts), nil
	case ADAM:
		return Adam(obj, x0, opts), nil
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

// GradientDescent is plain steepest descent with a fixed learning rate and
// halving backtracking when a step increases the cost.
func GradientDescent(obj Objective, x0 []float64, opts Options) *Result {
	opts = opts.withDefaults()
	st := newRunState(opts)
	n := len(x0)
	x := append([]float64(nil), x0...)
	grad := make([]float64, n)
	trial := make([]float64, n)
	cost := obj.Gradient(x, grad)
	st.evals++

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if cost <= opts.TargetCost {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "target cost reached"}
		}
		if infNorm(grad) <= opts.GradTol {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "gradient tolerance reached"}
		}
		if st.expired() {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Reason: "time budget exhausted"}
		}
		step := opts.LearningRate
		var trialCost float64
		for k := 0; ; k++ {
			for i := range trial {
				trial[i] = x[i] - step*grad[i]
			}
			trialCost = obj.Evaluate(trial)
			st.evals++
			if trialCost < cost || k >= 30 {
				break
			}
			step /= 2
		}
		if trialCost >= cost {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Reason: "no descent step found"}
		}
		if opts.IterHook != nil {
			// trial − x = −step·grad, so the step norm is step·‖grad‖₂.
			opts.IterHook(iter, trialCost, step*norm2(grad))
		}
		copy(x, trial)
		cost = obj.Gradient(x, grad)
		st.evals++
	}
	return &Result{X: x, Cost: cost, Iterations: opts.MaxIterations, FuncEvals: st.evals, Reason: "iteration cap"}
}

// Adam implements the ADAM optimizer (Kingma & Ba 2015) with the usual
// β1=0.9, β2=0.999 moments.
func Adam(obj Objective, x0 []float64, opts Options) *Result {
	opts = opts.withDefaults()
	st := newRunState(opts)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	n := len(x0)
	x := append([]float64(nil), x0...)
	m := make([]float64, n)
	v := make([]float64, n)
	grad := make([]float64, n)
	cost := obj.Gradient(x, grad)
	st.evals++

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if cost <= opts.TargetCost {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "target cost reached"}
		}
		if infNorm(grad) <= opts.GradTol {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "gradient tolerance reached"}
		}
		if st.expired() {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Reason: "time budget exhausted"}
		}
		t := float64(iter + 1)
		var stepSq float64
		for i := 0; i < n; i++ {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			mh := m[i] / (1 - math.Pow(beta1, t))
			vh := v[i] / (1 - math.Pow(beta2, t))
			d := opts.LearningRate * mh / (math.Sqrt(vh) + eps)
			x[i] -= d
			if opts.IterHook != nil {
				stepSq += d * d
			}
		}
		cost = obj.Gradient(x, grad)
		st.evals++
		if opts.IterHook != nil {
			opts.IterHook(iter, cost, math.Sqrt(stepSq))
		}
	}
	return &Result{X: x, Cost: cost, Iterations: opts.MaxIterations, FuncEvals: st.evals, Reason: "iteration cap"}
}
