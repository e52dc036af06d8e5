package accqoc

import (
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/grouping"
	"accqoc/internal/mapping"
	"accqoc/internal/precompile"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// The front-end benchmarks time one pass over servebench's warm pool (the
// programs its warm traffic replays) on Melbourne under map2b4l, layer by
// layer: FrontEndMap is Toffoli decomposition, crosstalk-aware A* routing
// and swap lowering; FrontEndDivide is Algorithms 1–2 with the group DAG;
// FrontEndUnitaries builds every group unitary behind the canonical keys;
// PlanGroups is the whole front end a warm request runs.

var frontEndSink int

func frontEndPool(b *testing.B) (*Compiler, []*circuit.Circuit) {
	b.Helper()
	c := New(Options{Device: topology.Melbourne(), Policy: grouping.Map2b4l})
	var progs []*circuit.Circuit
	for _, spec := range []string{"named:4gt4-v0", "named:qft_10", "random:6:300:1"} {
		p, err := workload.FromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p.Circuit)
	}
	return c, progs
}

// frontEndPrepared runs the pool through the front end once, outside the
// timed region of the per-layer benchmarks that start from its output.
func frontEndPrepared(b *testing.B) []*Prepared {
	b.Helper()
	c, progs := frontEndPool(b)
	out := make([]*Prepared, len(progs))
	for i, p := range progs {
		prep, err := c.Prepare(p)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = prep
	}
	return out
}

func BenchmarkFrontEndMap(b *testing.B) {
	c, progs := frontEndPool(b)
	opts := c.Options()
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range progs {
			mapped, err := mapping.Map(p.DecomposeCCX(), opts.Device, opts.Mapping)
			if err != nil {
				b.Fatal(err)
			}
			phys, err := mapping.DecomposeSwaps(mapped.Mapped, opts.Device)
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink += len(phys.Gates)
		}
	}
}

func BenchmarkFrontEndDivide(b *testing.B) {
	preps := frontEndPrepared(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range preps {
			gr, err := grouping.Divide(p.Physical, grouping.Map2b4l)
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink += len(gr.Groups)
		}
	}
}

func BenchmarkFrontEndUnitaries(b *testing.B) {
	preps := frontEndPrepared(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range preps {
			for _, g := range p.Grouping.Groups {
				u, err := g.Unitary()
				if err != nil {
					b.Fatal(err)
				}
				frontEndSink += u.Rows
			}
		}
	}
}

func BenchmarkPlanGroups(b *testing.B) {
	c, progs := frontEndPool(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range progs {
			plan, err := c.PlanGroups(p)
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink += len(plan.Unique)
		}
	}
}

// BenchmarkResolvedTail times what a warm circuit request runs after its
// groups resolve, over the same pool against synthetic entries for every
// key: pricing and Algorithm 3, the slot list, Schedule.Validate and the
// latency and fidelity estimates.
func BenchmarkResolvedTail(b *testing.B) {
	c, progs := frontEndPool(b)
	dev := c.Options().Device
	plans := make([]*GroupPlan, len(progs))
	libs := make([]map[string]*precompile.Entry, len(progs))
	for i, p := range progs {
		plan, err := c.PlanGroups(p)
		if err != nil {
			b.Fatal(err)
		}
		plans[i], libs[i] = plan, syntheticLibrary(plan, true)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, plan := range plans {
			sched, err := AssembleSchedule(&CompileResult{GroupPlan: plan}, libs[i], dev.Calibration)
			if err != nil {
				b.Fatal(err)
			}
			if err := sched.Validate(); err != nil {
				b.Fatal(err)
			}
			est := Estimate(plan.DAG, dev, sched.MakespanNs)
			frontEndSink += len(sched.Pulses) + int(est.LatencyReduction) + int(1e6*est.EstimatedFidelity)
		}
	}
}
