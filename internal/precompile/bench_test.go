package precompile

import (
	"math/rand"
	"slices"
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
)

// search2QGroups is the number of groups one BenchmarkSearch2Q op trains.
const search2QGroups = 32

// randomGroups2Q draws n seeded random two-qubit groups of the shape the
// map2b4l policy cuts: one or two CX (either orientation) among one to
// three rotations with random angles on either qubit.
func randomGroups2Q(b *testing.B, n int, seed int64) []*grouping.UniqueGroup {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	rotations := []gate.Name{gate.RX, gate.RY, gate.RZ}
	groups := make([]*grouping.Group, n)
	for i := range groups {
		var gs []gate.Instance
		for range 1 + rng.Intn(2) {
			c, t := 0, 1
			if rng.Intn(2) == 1 {
				c, t = 1, 0
			}
			gs = append(gs, gate.MustInstance(gate.CX, []int{c, t}))
		}
		for range 1 + rng.Intn(3) {
			r := gate.MustInstance(rotations[rng.Intn(len(rotations))], []int{rng.Intn(2)}, 2*rng.Float64()-1)
			gs = slices.Insert(gs, rng.Intn(len(gs)+1), r)
		}
		groups[i] = &grouping.Group{Qubits: []int{0, 1}, Gates: gs}
	}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		b.Fatal(err)
	}
	return uniq
}

// BenchmarkSearch2Q runs whole two-qubit latency searches: each op trains
// search2QGroups seeded random 2Q groups cold, one TrainGroup each, in the
// default Search2Q bracket (150–1500 ns, resolution 50 ns) with the GRAPE
// options servebench serves with (target 1e-3, 600 iterations per probe).
// It reports the paper's two metrics, summed over the groups: optimizer
// iterations (grape-iters, the compile cost) and the chosen pulse
// durations (duration-ns, the latency AccQOC reduces), plus the searches
// that found no feasible duration (failed). All three are deterministic.
func BenchmarkSearch2Q(b *testing.B) {
	uniq := randomGroups2Q(b, search2QGroups, 1)
	cfg := Config{Grape: grape.Options{TargetInfidelity: 1e-3, MaxIterations: 600}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var iters, failed int
		var duration float64
		for _, g := range uniq {
			e, err := TrainGroup(g, cfg, nil)
			if err != nil {
				failed++
				continue
			}
			iters += e.Iterations
			duration += e.LatencyNs
		}
		b.ReportMetric(float64(iters), "grape-iters/op")
		b.ReportMetric(duration, "duration-ns/op")
		b.ReportMetric(float64(failed), "failed/op")
	}
}
