// Package latency implements the paper's Algorithm 3: dynamic programming
// over a dependency DAG to compute a program's overall latency from
// per-node latencies — for both the group-level DAG (QOC compilation) and
// the gate-level DAG (gate-based compilation baseline).
package latency

import (
	"fmt"

	"accqoc/internal/circuit"
	"accqoc/internal/grouping"
)

// OverallGates runs Schedule's DP over a circuit's gate-level DAG with a
// per-gate latency function — the gate-based compilation baseline
// (§II-C): pulses concatenate along the dependency critical path.
func OverallGates(dag *circuit.DAG, gateLatency func(g int) float64) float64 {
	c := dag.Circuit
	finish := make([]float64, len(c.Gates))
	var overall float64
	for i := range c.Gates { // program order is topological for gate DAGs
		var start float64
		for _, p := range dag.Preds[i] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[i] = start + gateLatency(i)
		if finish[i] > overall {
			overall = finish[i]
		}
	}
	return overall
}

// Schedule runs Algorithm 3 on a grouping's DAG: each group starts when
// its last predecessor finishes and runs for durations[i] ns, and the
// overall latency is the latest finish. It returns every group's ASAP
// start and the overall latency. A negative duration or a corrupt DAG
// fails it.
func Schedule(gr *grouping.Grouping, durations []float64) (starts []float64, overall float64, err error) {
	n := len(gr.Groups)
	if len(durations) != n {
		return nil, 0, fmt.Errorf("latency: %d durations for %d groups", len(durations), n)
	}
	starts = make([]float64, n)
	done := make([]bool, n)
	// Kahn topological traversal — group order is not assumed sorted.
	indeg := make([]int, n)
	for i := range gr.Groups {
		indeg[i] = len(gr.Preds[i])
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		processed++
		var start float64
		for _, p := range gr.Preds[cur] {
			if !done[p] {
				return nil, 0, fmt.Errorf("latency: predecessor %d of %d not finished — DAG corrupt", p, cur)
			}
			if finish := starts[p] + durations[p]; finish > start {
				start = finish
			}
		}
		lat := durations[cur]
		if lat < 0 {
			return nil, 0, fmt.Errorf("latency: negative latency %v for group %d", lat, cur)
		}
		starts[cur] = start
		done[cur] = true
		if finish := start + lat; finish > overall {
			overall = finish
		}
		for _, s := range gr.Succs[cur] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != n {
		return nil, 0, fmt.Errorf("latency: group DAG has a cycle (%d of %d processed)", processed, n)
	}
	return starts, overall, nil
}
