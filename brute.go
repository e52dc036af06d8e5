package accqoc

import (
	"fmt"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grouping"
	"accqoc/internal/latency"
	"accqoc/internal/precompile"
)

// BruteForceOptions configures the brute-force QOC baseline of Figure 15:
// "we form the brute force QOC groups by including as many qubits and gates
// as possible". Group sizes are capped at MaxQubits because per-group GRAPE
// cost grows exponentially — the paper's own aggregates (up to 10 qubits)
// take hours per group, which is exactly the overhead AccQOC removes.
type BruteForceOptions struct {
	// MaxQubits caps brute-force group width (default 3; the 2^n Hilbert
	// space makes 4+ prohibitively slow on a laptop-scale run).
	MaxQubits int
	// MaxLayers caps group depth (default 8).
	MaxLayers int
}

func (o BruteForceOptions) withDefaults() BruteForceOptions {
	if o.MaxQubits == 0 {
		o.MaxQubits = 3
	}
	if o.MaxLayers == 0 {
		o.MaxLayers = 8
	}
	return o
}

// BruteForceResult reports the brute-force QOC baseline on one program.
type BruteForceResult struct {
	Groups             int
	UniqueGroups       int
	TrainingIterations int
	TrainingTime       time.Duration
	OverallLatencyNs   float64
	GateBasedLatencyNs float64
	LatencyReduction   float64
}

// CompileBruteForce compiles a program with brute-force QOC: large groups,
// no pre-compiled library, no similarity acceleration — every unique group
// trains cold with its own latency binary search. This regenerates the
// Figure 15 baseline (better latency than AccQOC, far larger compile time).
func (c *Compiler) CompileBruteForce(prog *circuit.Circuit, bopts BruteForceOptions) (*BruteForceResult, error) {
	bopts = bopts.withDefaults()
	prep, err := c.Prepare(prog)
	if err != nil {
		return nil, err
	}
	pol := grouping.Policy{
		Name:      fmt.Sprintf("brute%db%dl", bopts.MaxQubits, bopts.MaxLayers),
		MaxQubits: bopts.MaxQubits,
		MaxLayers: bopts.MaxLayers,
	}
	gr, err := grouping.Divide(prep.Physical, pol)
	if err != nil {
		return nil, err
	}
	uniq, err := grouping.Deduplicate(gr.Groups)
	if err != nil {
		return nil, err
	}

	res := &BruteForceResult{Groups: len(gr.Groups), UniqueGroups: len(uniq)}
	latencyByKey := map[string]float64{}
	start := time.Now()
	for _, u := range uniq {
		e, terr := precompile.TrainGroup(u, c.opts.Precompile, nil)
		if terr != nil {
			// Price the group gate-based; brute force keeps going.
			latencyByKey[u.Key] = c.gateFallbackNs(u.Group)
			continue
		}
		res.TrainingIterations += e.Iterations
		latencyByKey[u.Key] = e.LatencyNs
	}
	res.TrainingTime = time.Since(start)

	keys := make([]string, len(gr.Groups))
	for i, g := range gr.Groups {
		k, kerr := g.Key()
		if kerr != nil {
			return nil, kerr
		}
		keys[i] = k
	}
	overall, err := latency.OverallGroups(gr, func(i int) (float64, error) {
		return latencyByKey[keys[i]], nil
	})
	if err != nil {
		return nil, err
	}
	res.OverallLatencyNs = overall
	res.GateBasedLatencyNs = gatepulse.Overall(prep.Physical, c.opts.Device.Calibration)
	if overall > 0 {
		res.LatencyReduction = res.GateBasedLatencyNs / overall
	}
	return res, nil
}
