package optimize

import (
	"math"
	"testing"
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

func TestAllMethodsQuadratic(t *testing.T) {
	for _, q := range []quadratic{
		{a: []float64{1, -2, 3}, c: []float64{1, 4, 0.5}},
		{a: []float64{1, 1}, c: []float64{1, 1000}}, // ill-conditioned
	} {
		res := Minimize(q, make([]float64, len(q.a)), Options{MaxIterations: 3000, GradTol: 1e-10})
		if res.Cost > 1e-8 {
			t.Errorf("c=%v: cost %v after %d iters (%s)", q.c, res.Cost, res.Iterations, res.Reason)
		}
		for i, want := range q.a {
			if math.Abs(res.X[i]-want) > 1e-3 {
				t.Errorf("c=%v: x[%d] = %v, want %v", q.c, i, res.X[i], want)
			}
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res := Minimize(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 300, GradTol: 1e-10})
	if res.Cost > 1e-9 {
		t.Fatalf("L-BFGS on Rosenbrock: cost %v (%s)", res.Cost, res.Reason)
	}
}

func TestTargetCostStopsEarly(t *testing.T) {
	q := quadratic{a: []float64{5}, c: []float64{1}}
	res := Minimize(q, []float64{0}, Options{MaxIterations: 100, TargetCost: 1e-3})
	if !res.Converged || res.Reason != "target cost reached" {
		t.Fatalf("expected convergence on the target cost: %s", res.Reason)
	}
	if res.Cost > 1e-3 {
		t.Fatalf("cost %v above target", res.Cost)
	}
}

func TestIterationCap(t *testing.T) {
	res := Minimize(rosenbrock{}, []float64{-1.2, 1}, Options{MaxIterations: 3})
	if res.Iterations != 3 || res.Converged || res.Reason != "iteration cap" {
		t.Fatalf("expected iteration cap at 3: %+v", res)
	}
}

func TestStartAtMinimum(t *testing.T) {
	q := quadratic{a: []float64{2, 3}, c: []float64{1, 1}}
	res := Minimize(q, []float64{2, 3}, Options{MaxIterations: 50})
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("starting at the minimum should converge instantly: %+v", res)
	}
}

func TestResultDoesNotAliasInput(t *testing.T) {
	q := quadratic{a: []float64{1}, c: []float64{1}}
	x0 := []float64{0}
	res := Minimize(q, x0, Options{MaxIterations: 50, GradTol: 1e-12})
	if x0[0] != 0 {
		t.Fatal("optimizer mutated the caller's x0")
	}
	if res.Cost > 1e-10 {
		t.Fatal("did not converge")
	}
}
