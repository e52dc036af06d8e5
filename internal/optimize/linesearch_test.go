package optimize

import (
	"fmt"
	"math"
	"testing"
)

// eagerWolfeLineSearch is the reference model of wolfeLineSearch: the same
// strong-Wolfe search, but every trial point pays for obj.Gradient whether
// or not its slope is read. The cost-only search must make exactly the
// decisions this one makes.
func eagerWolfeLineSearch(obj Objective, st *runState, x, dir []float64, f0 float64, g0 []float64, xNew, gradNew []float64) (float64, bool) {
	const c1, c2 = 1e-4, 0.9
	const maxSteps = 25
	d0 := dot(g0, dir)
	if d0 >= 0 {
		return f0, false
	}
	eval := func(a float64) (float64, float64) {
		for i := range x {
			xNew[i] = x[i] + a*dir[i]
		}
		c := obj.Gradient(xNew, gradNew)
		st.evals++
		return c, dot(gradNew, dir)
	}

	var alphaPrev, fPrev float64 = 0, f0
	alphaCur := 1.0
	var fCur, dCur float64
	for i := 0; i < maxSteps; i++ {
		fCur, dCur = eval(alphaCur)
		if fCur > f0+c1*alphaCur*d0 || (i > 0 && fCur >= fPrev) {
			return eagerZoom(f0, d0, alphaPrev, fPrev, alphaCur, eval)
		}
		if math.Abs(dCur) <= -c2*d0 {
			return fCur, true
		}
		if dCur >= 0 {
			return eagerZoom(f0, d0, alphaCur, fCur, alphaPrev, eval)
		}
		alphaPrev, fPrev = alphaCur, fCur
		alphaCur *= 2
	}
	if fCur < f0 {
		return fCur, true
	}
	return f0, false
}

func eagerZoom(f0, d0, lo, fLo, hi float64, eval func(float64) (float64, float64)) (float64, bool) {
	const c1, c2 = 1e-4, 0.9
	for i := 0; i < 30; i++ {
		a := (lo + hi) / 2
		f, d := eval(a)
		if f > f0+c1*a*d0 || f >= fLo {
			hi = a
		} else {
			if math.Abs(d) <= -c2*d0 {
				return f, true
			}
			if d*(hi-lo) >= 0 {
				hi = lo
			}
			lo, fLo = a, f
		}
		if math.Abs(hi-lo) < 1e-14 {
			if f < f0 {
				return f, true
			}
			break
		}
	}
	f, _ := eval(lo)
	if f < f0 {
		return f, true
	}
	return f0, false
}

// counting wraps an objective and counts its calls.
type counting struct {
	Objective
	evaluates, gradients int
}

func (c *counting) Evaluate(x []float64) float64 {
	c.evaluates++
	return c.Objective.Evaluate(x)
}

func (c *counting) Gradient(x, grad []float64) float64 {
	c.gradients++
	return c.Objective.Gradient(x, grad)
}

// noisy is a quadratic plus deterministic cost noise the gradient does not
// see. Near the minimum the noise dominates the cost comparisons, which
// drives the search through zoom's tolerance exit and its final fallback —
// the branches where a point is accepted without its slope being read.
type noisy struct{ quadratic }

func (n noisy) Evaluate(x []float64) float64 { return n.quadratic.Evaluate(x) + n.noise(x) }

func (n noisy) Gradient(x, grad []float64) float64 {
	return n.quadratic.Gradient(x, grad) + n.noise(x)
}

func (noisy) noise(x []float64) float64 {
	var h uint64
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
	}
	return 1e-6 * float64(h>>11) / (1 << 53)
}

// sameResult reports how a and b differ, bit for bit, or "" if they don't.
func sameResult(a, b *Result) string {
	if len(a.X) != len(b.X) {
		return fmt.Sprintf("len(X) %d vs %d", len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Sprintf("X[%d] %v vs %v", i, a.X[i], b.X[i])
		}
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Iterations != b.Iterations ||
		a.FuncEvals != b.FuncEvals || a.Converged != b.Converged || a.Reason != b.Reason {
		return fmt.Sprintf("{cost %v iters %d evals %d %q} vs {cost %v iters %d evals %d %q}",
			a.Cost, a.Iterations, a.FuncEvals, a.Reason, b.Cost, b.Iterations, b.FuncEvals, b.Reason)
	}
	return ""
}

func TestCostOnlyLineSearchMatchesEager(t *testing.T) {
	illConditioned := quadratic{
		a: []float64{1, -2, 3, 0.5, -1, 2, 0, 4},
		c: []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 3},
	}
	// reason is each case's stop reason: between them the cases reach
	// the two stops that no other test does.
	cases := []struct {
		name   string
		obj    Objective
		x0     []float64
		reason string
	}{
		{"rosenbrock", rosenbrock{}, []float64{-1.2, 1}, "gradient tolerance reached"},
		{"rosenbrock-far", rosenbrock{}, []float64{3, -4}, "gradient tolerance reached"},
		{"ill-conditioned", illConditioned, make([]float64, 8), "gradient tolerance reached"},
		{"noisy", noisy{illConditioned}, []float64{5, 5, 5, 5, 5, 5, 5, 5}, "line search failed"},
	}
	for _, c := range cases {
		opts := Options{MaxIterations: 300, GradTol: 1e-10}
		lazyObj := &counting{Objective: c.obj}
		eagerObj := &counting{Objective: c.obj}
		lazy := minimize(lazyObj, c.x0, opts, wolfeLineSearch)
		eager := minimize(eagerObj, c.x0, opts, eagerWolfeLineSearch)
		if diff := sameResult(lazy, eager); diff != "" {
			t.Errorf("%s: cost-only result differs from eager: %s", c.name, diff)
		}
		if lazy.Reason != c.reason {
			t.Errorf("%s: stopped on %q, want %q", c.name, lazy.Reason, c.reason)
		}
		if eagerObj.gradients != eager.FuncEvals || eagerObj.evaluates != 0 {
			t.Fatalf("%s: eager model made %d Gradient and %d Evaluate calls for %d evals",
				c.name, eagerObj.gradients, eagerObj.evaluates, eager.FuncEvals)
		}
		// Every trial point is priced once; the initial point is
		// priced by Gradient alone.
		if lazyObj.evaluates != lazy.FuncEvals-1 {
			t.Errorf("%s: %d Evaluate calls for %d evals", c.name, lazyObj.evaluates, lazy.FuncEvals)
		}
		if lazyObj.gradients >= eagerObj.gradients {
			t.Errorf("%s: %d Gradient calls, eager made %d", c.name, lazyObj.gradients, eagerObj.gradients)
		}
		t.Logf("%s: %d iters, %d trial points, Gradient calls %d → %d (%s)", c.name,
			lazy.Iterations, lazy.FuncEvals, eagerObj.gradients, lazyObj.gradients, lazy.Reason)
	}
}
