// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), one benchmark per artifact, plus ablations of the design choices
// DESIGN.md calls out. The per-figure benches run tiny variants so the
// whole suite finishes in minutes; cmd/accqoc-repro runs the full-size
// versions and EXPERIMENTS.md records the outcomes.
package accqoc_test

import (
	"io"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/experiments"
	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/partition"
	"accqoc/internal/precompile"
	"accqoc/internal/simgraph"
	"accqoc/internal/similarity"
	"accqoc/internal/workload"
)

// benchScale shrinks every experiment so one iteration is seconds, not
// minutes.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.Name = "bench"
	sc.ProfilePrograms = 2
	sc.TargetPrograms = 2
	sc.ProgramGates = [2]int{40, 80}
	sc.Fig11Programs = 3
	sc.AccelGroups = 5
	sc.Fig13Groups = 4
	sc.Fig14Gates = []int{100, 300, 600}
	sc.Fig15Programs = 1
	sc.Fig15Gates = 12
	sc.Grape = grape.Options{TargetInfidelity: 1e-2, MaxIterations: 200, Restarts: -1, Seed: 2}
	sc.Search1Q = grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 30}
	sc.Search2Q = grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 300}
	return sc
}

func BenchmarkTable1Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable2InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

func BenchmarkFigure5Crosstalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard)
	}
}

func BenchmarkFigure7Coverage(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8SimilarityFunctions(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11CrosstalkMapping(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12LatencyReduction(b *testing.B) {
	sc := benchScale()
	p, err := workload.Random("bench12", 5, 30, 77)
	if err != nil {
		b.Fatal(err)
	}
	sc.Fig12Custom = []*workload.Program{p}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13IterationReduction(b *testing.B) {
	sc := benchScale()
	sc.TargetPrograms = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14GroupGrowth(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15AccQOCvsBruteForce(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of DESIGN.md §4 choices ---

// BenchmarkAblationWarmStart compares cold-start training of a small group
// family against MST warm starts.
func BenchmarkAblationWarmStart(b *testing.B) {
	var groups []*grouping.Group
	for i := 0; i < 5; i++ {
		groups = append(groups, &grouping.Group{
			Qubits: []int{0},
			Gates:  []gate.Instance{gate.MustInstance(gate.RZ, []int{0}, 0.4+0.1*float64(i))},
		})
	}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		b.Fatal(err)
	}
	cfg := precompile.Config{Grape: grape.Options{TargetInfidelity: 1e-3, MaxIterations: 300, Seed: 1}}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold, _, err := precompile.AccelerationStudy(uniq, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cold.Iterations), "iters")
		}
	})
	b.Run("mst-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, arms, err := precompile.AccelerationStudy(uniq, []similarity.Func{similarity.TraceFid}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(arms[0].Iterations), "iters")
		}
	})
}

// BenchmarkAblationMSTOrder compares MST-ordered warm starts against the
// naive sequential ordering on the same category.
func BenchmarkAblationMSTOrder(b *testing.B) {
	var us []*cmat.Matrix
	for i := 0; i < 6; i++ {
		u, err := gate.Unitary(gate.RZ, []float64{0.3 + 0.37*float64(i)})
		if err != nil {
			b.Fatal(err)
		}
		us = append(us, u)
	}
	sys := hamiltonian.OneQubit(hamiltonian.Config{})
	opts := grape.Options{Segments: 12, TargetInfidelity: 1e-3, Seed: 5, MaxIterations: 300}
	runSeq := func(steps []simgraph.Step) int {
		trained := make(map[int]*grape.Result)
		total := 0
		for _, s := range steps {
			var res *grape.Result
			var err error
			if prev := trained[s.WarmFrom]; s.WarmFrom >= 0 && prev != nil {
				res, err = grape.Compile(sys, us[s.Group], 60, opts, prev.Pulse)
			} else {
				res, err = grape.Compile(sys, us[s.Group], 60, opts, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
			total += res.Iterations
			trained[s.Group] = res
		}
		return total
	}
	g, err := simgraph.Build(us, similarity.TraceFid)
	if err != nil {
		b.Fatal(err)
	}
	mst, err := g.PrimMST(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mst-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(runSeq(mst.CompilationSequence())), "iters")
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(runSeq(simgraph.SequentialSequence(len(us)))), "iters")
		}
	})
}

// BenchmarkAblationPartition compares the balanced MST partition against
// round-robin assignment, reporting makespans.
func BenchmarkAblationPartition(b *testing.B) {
	parent := make([]int, 40)
	weight := make([]float64, 40)
	parent[0] = -1
	for i := 1; i < 40; i++ {
		parent[i] = (i - 1) / 2 // binary-ish tree
		weight[i] = float64(1 + i%7)
	}
	weight[0] = 5
	tree, err := partition.NewTree(parent, weight)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := partition.Balanced(tree, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Makespan, "makespan")
		}
	})
	b.Run("round-robin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := partition.RoundRobin(tree, 4)
			b.ReportMetric(res.Makespan, "makespan")
		}
	})
}
