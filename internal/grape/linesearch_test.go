package grape

import (
	"math"
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/optimize"
)

// countingObjective counts the optimizer's calls into the GRAPE objective.
type countingObjective struct {
	*objective
	evaluates, gradients int
}

func (c *countingObjective) Evaluate(x []float64) float64 {
	c.evaluates++
	return c.objective.Evaluate(x)
}

func (c *countingObjective) Gradient(x, grad []float64) float64 {
	c.gradients++
	return c.objective.Gradient(x, grad)
}

// TestLineSearchOn2QObjective runs L-BFGS on the BenchmarkCompile2Q
// objective and pins its Result to the one the eager line search produced:
// the reference model (package optimize's tests) that calls Gradient at
// every trial point, so it made exactly FuncEvals Gradient calls. The
// cost-only search must reproduce the Result bit for bit with strictly
// fewer Gradient calls, which also proves the objective's cached forward
// pass leaves the gradient unchanged.
func TestLineSearchOn2QObjective(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	const (
		xHash      = "8a1873356587fc62894a6111aac42e09fb0a4e681b171e8420a89732aad16aa8"
		costBits   = 0x3f4fec4efdd49e9d
		iterations = 46
		funcEvals  = 74
		reason     = "target cost reached"
	)
	opts := Options{Segments: 32, Seed: 5}.withDefaults()
	obj := &countingObjective{objective: newObjective(twoQ(), gateU(t, gate.CX), 500, opts)}
	res := optimize.Minimize(obj, obj.initialVector(nil),
		optimize.Options{MaxIterations: 80, TargetCost: 1e-3, GradTol: 1e-12})
	got := [5]any{bitsHash(res.X), math.Float64bits(res.Cost), res.Iterations, res.FuncEvals, res.Reason}
	want := [5]any{xHash, uint64(costBits), iterations, funcEvals, reason}
	if got != want {
		t.Errorf("(X hash, cost bits, iterations, evals, reason) = %v, want %v", got, want)
	}
	if obj.gradients >= res.FuncEvals {
		t.Errorf("%d Gradient calls for %d trial points; the eager search made one per point",
			obj.gradients, res.FuncEvals)
	}
	t.Logf("%d iterations, %d trial points, %d Evaluate and %d Gradient calls",
		res.Iterations, res.FuncEvals, obj.evaluates, obj.gradients)
}
