package grape

import (
	"fmt"
	"math"

	"accqoc/internal/cmat"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
)

// SearchOptions bounds the latency binary search (§IV-D: "binary search is
// necessary to ensure optimal latency within the target fidelity
// convergence requirement").
type SearchOptions struct {
	// MinDuration / MaxDuration bracket the search in nanoseconds.
	// Defaults: 5 ns and 2000 ns.
	MinDuration float64
	MaxDuration float64
	// Resolution stops the bisection when the bracket is this tight
	// (default 12.5 ns — half a segment at typical settings).
	Resolution float64
	// HintDuration, when positive, is a similar group's known latency.
	// The feasibility probe starts at 1.25× the hint instead of
	// MaxDuration — similar groups have similar speed limits, so this
	// skips most of the bracket. Falls back to MaxDuration when the hint
	// bracket turns out infeasible.
	HintDuration float64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.MinDuration == 0 {
		o.MinDuration = 5
	}
	if o.MaxDuration == 0 {
		o.MaxDuration = 2000
	}
	if o.Resolution == 0 {
		o.Resolution = 12.5
	}
	return o
}

// Probe records one binary-search attempt.
type Probe struct {
	Duration   float64
	Converged  bool
	Iterations int
	Infidelity float64
}

// SearchResult is the outcome of CompileBinarySearch.
type SearchResult struct {
	Result
	Duration        float64 // minimal feasible latency found (ns)
	Probes          []Probe
	TotalIterations int // Σ iterations across probes — the compile-cost metric (§VI-G)
}

// CompileBinarySearch finds the (approximately) minimal pulse duration that
// reaches the target fidelity, then returns the pulse trained at that
// duration. Each probe warm-starts from the best pulse found so far,
// resampled to the probe's grid. A nil seed starts the first probe from
// random amplitudes.
func CompileBinarySearch(sys *hamiltonian.System, target *cmat.Matrix, opts Options, sopts SearchOptions, seed *pulse.Pulse) (*SearchResult, error) {
	opts = opts.withDefaults()
	sopts = sopts.withDefaults()
	if sopts.MinDuration <= 0 || sopts.MaxDuration < sopts.MinDuration {
		return nil, fmt.Errorf("grape: invalid search bracket [%v, %v]", sopts.MinDuration, sopts.MaxDuration)
	}

	out := &SearchResult{}
	best := seed
	var bestResult *Result
	bestDuration := math.NaN()

	try := func(d float64, o Options) (bool, error) {
		res, err := Compile(sys, target, d, o, best)
		if err != nil {
			return false, err
		}
		out.Probes = append(out.Probes, Probe{
			Duration: d, Converged: res.Converged,
			Iterations: res.Iterations, Infidelity: res.Infidelity,
		})
		out.TotalIterations += res.Iterations
		if res.Converged {
			best = res.Pulse
			bestResult = res
			bestDuration = d
		}
		return res.Converged, nil
	}

	// Establish a feasible upper bound. Only this probe uses the caller's
	// restart budget: an infeasible *interior* probe is usually a genuine
	// speed-limit violation, and restarting it would triple its cost for
	// nothing (the dominant compile-time sink otherwise).
	lo := sopts.MinDuration
	hi := sopts.MaxDuration
	probeOpts := opts
	probeOpts.Restarts = -1

	tried := false
	if h := sopts.HintDuration; h > 0 {
		// Hint-only: a similar group's latency brackets the speed limit
		// loosely, so hedge 25% above it. With a seed pulse the hint is
		// the seed's *native* duration: probing exactly there reuses the
		// waveform on an identical grid (resampling to a stretched grid
		// distorts every rotation and squanders the warm start), and a
		// seeded probe that converges does so almost immediately.
		hintHi := h * 1.25
		if seed != nil && h >= lo && h <= hi {
			// Even when h sits within Resolution of the floor: bumping a
			// seeded probe off its native grid would reintroduce the
			// stretch distortion.
			hintHi = h
		} else if hintHi < lo+sopts.Resolution {
			hintHi = lo + sopts.Resolution
		}
		if hintHi < hi {
			ok, err := try(hintHi, probeOpts)
			if err != nil {
				return nil, err
			}
			if ok {
				hi = hintHi
				tried = true
			} else {
				lo = hintHi // known infeasible; search above it
			}
		}
	}
	if !tried {
		ok, err := try(hi, opts)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("grape: target unreachable within %v ns at fidelity %v",
				hi, 1-opts.TargetInfidelity)
		}
	}

	// Bisect: invariant — hi feasible, lo infeasible (or the floor).
	for hi-lo > sopts.Resolution {
		mid := (lo + hi) / 2
		ok, err := try(mid, probeOpts)
		if err != nil {
			return nil, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	out.Result = *bestResult
	out.Duration = bestDuration
	return out, nil
}

// VerifyPulse recomputes the propagator of p and returns its infidelity
// against the target: an independent check of a trained pulse, used by
// tests.
func VerifyPulse(sys *hamiltonian.System, p *pulse.Pulse, target *cmat.Matrix) float64 {
	u := Propagate(sys, p)
	return 1 - Fidelity(u, target)
}
