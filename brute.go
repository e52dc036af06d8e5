package accqoc

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/grouping"
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
	Estimates
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
	brute := *prep
	if brute.Grouping, err = grouping.DivideDAG(prep.DAG, pol); err != nil {
		return nil, err
	}
	plan, err := planPrepared(&brute)
	if err != nil {
		return nil, err
	}
	// Most frequent first, as grouping.Deduplicate orders a category.
	uniq := slices.Clone(plan.Unique)
	sort.SliceStable(uniq, func(i, j int) bool { return uniq[i].Count > uniq[j].Count })

	res := &BruteForceResult{Groups: len(brute.Grouping.Groups), UniqueGroups: len(uniq)}
	entries := make(map[string]*precompile.Entry, len(uniq))
	start := time.Now()
	for _, u := range uniq {
		e, terr := precompile.TrainGroup(u, c.opts.Precompile, nil)
		if terr != nil {
			// Brute force keeps going: every occurrence of the key is
			// priced at its representative's gate-based latency.
			e = &precompile.Entry{Key: u.Key, NumQubits: u.NumQubits, LatencyNs: gateFallbackNs(u.Group, c.opts.Device.Calibration)}
		} else {
			res.TrainingIterations += e.Iterations
		}
		entries[u.Key] = e
	}
	res.TrainingTime = time.Since(start)

	overall, err := plan.Makespan(entries, c.opts.Device.Calibration)
	if err != nil {
		return nil, err
	}
	res.Estimates = Estimate(prep.DAG, c.opts.Device, overall)
	return res, nil
}
