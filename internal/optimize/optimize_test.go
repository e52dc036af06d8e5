package optimize

import (
	"math"
	"testing"
	"time"
)

// quadratic: f(x) = Σ cᵢ(xᵢ−aᵢ)², minimum at a.
type quadratic struct {
	a, c []float64
}

func (q quadratic) Evaluate(x []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - q.a[i]
		f += q.c[i] * d * d
	}
	return f
}

func (q quadratic) Gradient(x, grad []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - q.a[i]
		f += q.c[i] * d * d
		grad[i] = 2 * q.c[i] * d
	}
	return f
}

// rosenbrock: the classic banana function, minimum 0 at (1,1).
type rosenbrock struct{}

func (rosenbrock) Evaluate(x []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}

func (rosenbrock) Gradient(x, grad []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	grad[0] = -2*a - 400*x[0]*b
	grad[1] = 200 * b
	return a*a + 100*b*b
}

func methods() []Method { return []Method{BFGS, LBFGS} }

func TestAllMethodsQuadratic(t *testing.T) {
	for _, q := range []quadratic{
		{a: []float64{1, -2, 3}, c: []float64{1, 4, 0.5}},
		{a: []float64{1, 1}, c: []float64{1, 1000}}, // ill-conditioned
	} {
		for _, m := range methods() {
			res, err := Minimize(m, q, make([]float64, len(q.a)), Options{MaxIterations: 3000, GradTol: 1e-10})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			if res.Cost > 1e-8 {
				t.Errorf("%s on c=%v: cost %v after %d iters (%s)", m, q.c, res.Cost, res.Iterations, res.Reason)
			}
			for i, want := range q.a {
				if math.Abs(res.X[i]-want) > 1e-3 {
					t.Errorf("%s on c=%v: x[%d] = %v, want %v", m, q.c, i, res.X[i], want)
				}
			}
		}
	}
}

func TestBFGSRosenbrock(t *testing.T) {
	res := MinimizeBFGS(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 200, GradTol: 1e-10})
	if res.Cost > 1e-10 {
		t.Fatalf("BFGS on Rosenbrock: cost %v after %d iters (%s)", res.Cost, res.Iterations, res.Reason)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("BFGS did not reach (1,1): %v", res.X)
	}
	if res.Iterations > 100 {
		t.Errorf("BFGS took %d iterations on Rosenbrock; expected superlinear convergence", res.Iterations)
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res := MinimizeLBFGS(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 300, GradTol: 1e-10})
	if res.Cost > 1e-9 {
		t.Fatalf("L-BFGS on Rosenbrock: cost %v (%s)", res.Cost, res.Reason)
	}
}

func TestTargetCostStopsEarly(t *testing.T) {
	q := quadratic{a: []float64{5}, c: []float64{1}}
	res := MinimizeBFGS(q, []float64{0}, Options{MaxIterations: 100, TargetCost: 1e-3})
	if !res.Converged {
		t.Fatalf("expected convergence: %s", res.Reason)
	}
	if res.Cost > 1e-3 {
		t.Fatalf("cost %v above target", res.Cost)
	}
}

func TestIterationCap(t *testing.T) {
	res := MinimizeBFGS(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 3})
	if res.Iterations != 3 || res.Converged {
		t.Fatalf("expected iteration cap at 3: %+v", res)
	}
}

func TestTimeBudget(t *testing.T) {
	// A 1 ns budget expires immediately.
	res := MinimizeBFGS(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 100000, TimeBudget: time.Nanosecond})
	if res.Reason != "time budget exhausted" {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Minimize("sgd", rosenbrock{}, []float64{0, 0}, Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestStartAtMinimum(t *testing.T) {
	q := quadratic{a: []float64{2, 3}, c: []float64{1, 1}}
	for _, m := range methods() {
		res, err := Minimize(m, q, []float64{2, 3}, Options{MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != 0 {
			t.Errorf("%s: starting at the minimum should converge instantly: %+v", m, res)
		}
	}
}

func TestResultDoesNotAliasInput(t *testing.T) {
	q := quadratic{a: []float64{1}, c: []float64{1}}
	x0 := []float64{0}
	res := MinimizeBFGS(q, x0, Options{MaxIterations: 50, GradTol: 1e-12})
	if x0[0] != 0 {
		t.Fatal("optimizer mutated the caller's x0")
	}
	if res.Cost > 1e-10 {
		t.Fatal("did not converge")
	}
}
