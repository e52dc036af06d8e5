package optimize

import "math"

// Minimize runs L-BFGS from x0: the two-loop recursion over the last ten
// steps (lbfgsMemory), scaled by sᵀy/yᵀy of the newest pair, with a
// strong-Wolfe line search. It does not modify x0.
func Minimize(obj Objective, x0 []float64, opts Options) *Result {
	return minimize(obj, x0, opts, wolfeLineSearch)
}

func minimize(obj Objective, x0 []float64, opts Options, lineSearch lineSearchFunc) *Result {
	opts = opts.withDefaults()
	st := &runState{}
	n := len(x0)
	x := append([]float64(nil), x0...)
	grad := make([]float64, n)
	cost := obj.Gradient(x, grad)
	st.evals++

	var sHist, yHist [][]float64
	var rhoHist []float64

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gradNew := make([]float64, n)
	alphas := make([]float64, lbfgsMemory+1)
	// History slices evicted from the ring are recycled here instead of
	// re-allocated every accepted step.
	var spareS, spareY []float64

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if cost <= opts.TargetCost {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "target cost reached"}
		}
		if infNorm(grad) <= opts.GradTol {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Converged: true, Reason: "gradient tolerance reached"}
		}
		// Two-loop recursion.
		copy(dir, grad)
		k := len(sHist)
		alphas := alphas[:k]
		for i := k - 1; i >= 0; i-- {
			alphas[i] = rhoHist[i] * dot(sHist[i], dir)
			axpy(dir, -alphas[i], yHist[i])
		}
		if k > 0 {
			gamma := dot(sHist[k-1], yHist[k-1]) / dot(yHist[k-1], yHist[k-1])
			scaleVec(dir, gamma)
		}
		for i := 0; i < k; i++ {
			beta := rhoHist[i] * dot(yHist[i], dir)
			axpy(dir, alphas[i]-beta, sHist[i])
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		if dot(dir, grad) >= 0 {
			sHist, yHist, rhoHist = nil, nil, nil
			for i := range dir {
				dir[i] = -grad[i]
			}
		}
		newCost, ok := lineSearch(obj, st, x, dir, cost, grad, xNew, gradNew)
		if !ok {
			return &Result{X: x, Cost: cost, Iterations: iter, FuncEvals: st.evals, Reason: "line search failed"}
		}
		s, y := spareS, spareY
		spareS, spareY = nil, nil
		if s == nil {
			s = make([]float64, n)
			y = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
		}
		if opts.IterHook != nil {
			opts.IterHook(iter, newCost, norm2(s))
		}
		if sy := dot(s, y); sy > 1e-12*norm2(s)*norm2(y) {
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
			if len(sHist) > lbfgsMemory {
				spareS, spareY = sHist[0], yHist[0]
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
		} else {
			spareS, spareY = s, y
		}
		copy(x, xNew)
		copy(grad, gradNew)
		cost = newCost
	}
	return &Result{X: x, Cost: cost, Iterations: opts.MaxIterations, FuncEvals: st.evals, Reason: "iteration cap"}
}

// lineSearchFunc is the step-length search L-BFGS runs. On success
// xNew/gradNew hold the accepted point and its gradient, and the point's
// cost is returned. It is a parameter only so tests can run the optimizer
// against a reference model of the search.
type lineSearchFunc func(obj Objective, st *runState, x, dir []float64, f0 float64, g0 []float64, xNew, gradNew []float64) (cost float64, ok bool)

// trialPoints prices the points x + a·dir of one line search into xNew and
// gradNew. The search reads the slope of every point it returns, so
// gradNew then holds that point's gradient.
type trialPoints struct {
	obj           Objective
	st            *runState
	x, dir        []float64
	xNew, gradNew []float64
}

// cost moves xNew to x + a·dir and returns its cost. Only the cost: most
// trial points fail sufficient decrease and never need their slope.
func (tp *trialPoints) cost(a float64) float64 {
	for i := range tp.x {
		tp.xNew[i] = tp.x[i] + a*tp.dir[i]
	}
	tp.st.evals++
	return tp.obj.Evaluate(tp.xNew)
}

// slope fills gradNew at xNew and returns the directional derivative.
func (tp *trialPoints) slope() float64 {
	tp.obj.Gradient(tp.xNew, tp.gradNew)
	return dot(tp.gradNew, tp.dir)
}

// wolfeLineSearch finds a step along dir satisfying the strong Wolfe
// conditions (c1 = 1e-4, c2 = 0.9). Trial points are priced with
// obj.Evaluate; obj.Gradient runs at the same point only when the search
// reads its slope or returns it (see Objective). On success xNew/gradNew
// hold the new point and its gradient, and the new cost is returned.
func wolfeLineSearch(obj Objective, st *runState, x, dir []float64, f0 float64, g0 []float64, xNew, gradNew []float64) (float64, bool) {
	const c1, c2 = 1e-4, 0.9
	const maxSteps = 25
	d0 := dot(g0, dir)
	if d0 >= 0 {
		return f0, false
	}
	tp := &trialPoints{obj: obj, st: st, x: x, dir: dir, xNew: xNew, gradNew: gradNew}

	var alphaPrev, fPrev float64 = 0, f0
	alphaCur := 1.0
	var fCur float64
	for i := 0; i < maxSteps; i++ {
		fCur = tp.cost(alphaCur)
		if fCur > f0+c1*alphaCur*d0 || (i > 0 && fCur >= fPrev) {
			return zoom(tp, f0, d0, alphaPrev, fPrev, alphaCur)
		}
		dCur := tp.slope()
		if math.Abs(dCur) <= -c2*d0 {
			return fCur, true
		}
		if dCur >= 0 {
			return zoom(tp, f0, d0, alphaCur, fCur, alphaPrev)
		}
		alphaPrev, fPrev = alphaCur, fCur
		alphaCur *= 2
	}
	// Accept the last point (whose slope was read) if it at least
	// decreases the cost.
	if fCur < f0 {
		return fCur, true
	}
	return f0, false
}

// zoom is the interval-refinement phase of the Wolfe search (N&W Alg 3.6).
func zoom(tp *trialPoints, f0, d0, lo, fLo, hi float64) (float64, bool) {
	const c1, c2 = 1e-4, 0.9
	for i := 0; i < 30; i++ {
		a := (lo + hi) / 2
		f := tp.cost(a)
		if f > f0+c1*a*d0 || f >= fLo {
			hi = a
		} else {
			d := tp.slope()
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
				tp.slope()
				return f, true
			}
			break
		}
	}
	// Final attempt: return lo if it improves on f0.
	if f := tp.cost(lo); f < f0 {
		tp.slope()
		return f, true
	}
	return f0, false
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func axpy(dst []float64, alpha float64, v []float64) {
	for i := range dst {
		dst[i] += alpha * v[i]
	}
}

func scaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
