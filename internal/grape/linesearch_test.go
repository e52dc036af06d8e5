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

// TestLineSearchOn2QObjective runs BFGS and L-BFGS on the BenchmarkCompile2Q
// objective and pins each Result to the one the eager line search produced:
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
	cases := []struct {
		method     optimize.Method
		xHash      string
		costBits   uint64
		iterations int
		funcEvals  int
		reason     string
	}{
		{optimize.BFGS, "a2bdafb6a55d60dbfa1b0c4ad5ef6e0304b00561ca3420889d4416918f99df80",
			0x3fc396c82e213528, 80, 909, "iteration cap"},
		{optimize.LBFGS, "8a1873356587fc62894a6111aac42e09fb0a4e681b171e8420a89732aad16aa8",
			0x3f4fec4efdd49e9d, 46, 74, "target cost reached"},
	}
	for _, c := range cases {
		opts := Options{Segments: 32, Seed: 5, Method: c.method}.withDefaults()
		obj := &countingObjective{objective: newObjective(twoQ(), gateU(t, gate.CX), 500, opts)}
		res, err := optimize.Minimize(c.method, obj, obj.initialVector(nil),
			optimize.Options{MaxIterations: 80, TargetCost: 1e-3, GradTol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		got := [5]any{bitsHash(res.X), math.Float64bits(res.Cost), res.Iterations, res.FuncEvals, res.Reason}
		want := [5]any{c.xHash, c.costBits, c.iterations, c.funcEvals, c.reason}
		if got != want {
			t.Errorf("%s: (X hash, cost bits, iterations, evals, reason) = %v, want %v", c.method, got, want)
		}
		if obj.gradients >= res.FuncEvals {
			t.Errorf("%s: %d Gradient calls for %d trial points; the eager search made one per point",
				c.method, obj.gradients, res.FuncEvals)
		}
		t.Logf("%s: %d iterations, %d trial points, %d Evaluate and %d Gradient calls",
			c.method, res.Iterations, res.FuncEvals, obj.evaluates, obj.gradients)
	}
}
