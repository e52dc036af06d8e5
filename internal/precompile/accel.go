package precompile

import (
	"fmt"

	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
	"accqoc/internal/similarity"
)

// AccelArm is one arm of the accelerated-training study (Fig. 8/13): the
// total GRAPE iterations to compile a group category under one ordering.
type AccelArm struct {
	Function   similarity.Func // "" for the cold baseline
	Iterations int
	// Reduction is 1 − Iterations/cold, filled by AccelerationStudy.
	Reduction float64
}

// FixedDurationFor returns the per-size pulse duration used by the
// acceleration study. Durations are chosen above the model's worst-case
// speed limit for the size (a SWAP-class two-qubit unitary needs ≈ 937 ns)
// so that iteration counts compare orderings, not feasibility.
func FixedDurationFor(numQubits int) float64 {
	switch numQubits {
	case 1:
		return 100
	case 2:
		return 1100
	default:
		return 1100 * float64(numQubits-1)
	}
}

// AccelerationStudy trains every unique group once per arm — a cold
// baseline plus one arm per similarity function, each in that function's
// Plan order with warm starts along tree edges — and reports the total
// iteration counts. Every training runs at its size's fixed duration, so
// the arms compare orderings, not latency searches. This regenerates the
// data behind the paper's Figures 8 and 13.
func AccelerationStudy(uniq []*grouping.UniqueGroup, fns []similarity.Func, cfg Config) (cold AccelArm, arms []AccelArm, err error) {
	cfg = cfg.withDefaults()
	systems := map[int]*hamiltonian.System{}
	// run trains the steps in order; fn ("" for the cold arm) gates warm
	// starts by its similarity threshold — a too-distant MST parent would
	// hurt rather than help (§V-C's identity fallback).
	run := func(steps []Step, fn similarity.Func) (int, error) {
		total := 0
		trained := make([]*pulse.Pulse, len(steps))
		for i, st := range steps {
			n := st.Group.NumQubits
			sys := systems[n]
			if sys == nil {
				var serr error
				if sys, serr = hamiltonian.ForQubits(n, cfg.Ham); serr != nil {
					return 0, serr
				}
				systems[n] = sys
			}
			gopts := cfg.Grape
			gopts.Segments = SegmentsFor(n)
			var seed *pulse.Pulse
			if fn != "" && st.WarmFrom >= 0 && st.Distance <= similarity.WarmThreshold(fn, sys.Dim) {
				seed = trained[st.WarmFrom]
			}
			res, cerr := grape.Compile(sys, st.Target, FixedDurationFor(n), gopts, seed)
			if cerr != nil {
				return 0, cerr
			}
			total += res.Iterations
			if res.Converged {
				trained[i] = res.Pulse
			}
		}
		return total, nil
	}

	// The cold arm trains every group from scratch, so any plan's order
	// gives the same total.
	steps, err := Plan(uniq, cfg.Similarity)
	if err != nil {
		return cold, nil, err
	}
	coldIters, err := run(steps, "")
	if err != nil {
		return cold, nil, err
	}
	cold = AccelArm{Function: "", Iterations: coldIters}

	for _, fn := range fns {
		steps, perr := Plan(uniq, fn)
		if perr != nil {
			return cold, nil, perr
		}
		iters, rerr := run(steps, fn)
		if rerr != nil {
			return cold, nil, rerr
		}
		arm := AccelArm{Function: fn, Iterations: iters}
		if coldIters > 0 {
			arm.Reduction = 1 - float64(iters)/float64(coldIters)
		}
		arms = append(arms, arm)
	}
	return cold, arms, nil
}

// String renders an arm for reports.
func (a AccelArm) String() string {
	name := string(a.Function)
	if name == "" {
		name = "cold"
	}
	return fmt.Sprintf("%-10s iterations=%d reduction=%.1f%%", name, a.Iterations, 100*a.Reduction)
}
