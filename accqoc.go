// Package accqoc implements AccQOC (Cheng, Deng, Qian — ISCA 2020): a
// static/dynamic hybrid workflow that compiles quantum gate groups to
// control pulses with quantum optimal control (GRAPE) under a reasonable
// compilation-time budget.
//
// The pipeline:
//
//  1. Prepare — decompose Toffolis, map the program onto the device with a
//     crosstalk-aware A* mapper, lower swaps per the grouping policy, and
//     divide the physical circuit into gate groups (the 2bNl policies of
//     the paper's Table I).
//  2. Profile — static pre-compilation (§IV): train a pulse library for the
//     deduplicated groups of a profiling set, binary-searching each group's
//     minimal latency, ordered by a similarity MST so each group
//     warm-starts from its most similar predecessor.
//  3. Compile — accelerated dynamic compilation (§V): groups covered by the
//     library cost nothing; uncovered groups are trained in MST order with
//     warm starts, then Algorithm 3 concatenates group pulses along the
//     dependency DAG into the program's overall latency, which is compared
//     against the gate-based compilation baseline.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package accqoc

import (
	"fmt"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grouping"
	"accqoc/internal/latency"
	"accqoc/internal/mapping"
	"accqoc/internal/precompile"
	"accqoc/internal/seedindex"
	"accqoc/internal/topology"
)

// Options configures a Compiler. The zero value selects the paper's
// defaults: the IBM Melbourne device, the map2b4l policy (the paper's best,
// §VI), crosstalk-aware mapping, and the fidelity1 similarity function.
type Options struct {
	Device *topology.Device
	Policy grouping.Policy
	// Mapping tunes the A* mapper. Its CrosstalkAware field is derived
	// from DisableCrosstalkAware below and any value set here is
	// overwritten; the other fields pass through.
	Mapping mapping.Options
	// DisableCrosstalkAware opts out of the default crosstalk-aware
	// mapping. The explicit flag exists because Mapping.CrosstalkAware's
	// zero value is indistinguishable from "use the default": with this
	// flag false (the default), crosstalk-aware mapping is always on.
	DisableCrosstalkAware bool
	Precompile            precompile.Config
}

func (o Options) withDefaults() Options {
	if o.Device == nil {
		o.Device = topology.Melbourne()
	}
	if o.Policy.Name == "" {
		o.Policy = grouping.Map2b4l
	}
	o.Mapping.CrosstalkAware = !o.DisableCrosstalkAware
	return o
}

// Compiler carries the configuration, the (growing) pulse library, and
// the warm-start seed index kept coherent with it.
type Compiler struct {
	opts  Options
	lib   *precompile.Library
	seeds *seedindex.Index
}

// New returns a Compiler with an empty pulse library.
func New(opts Options) *Compiler {
	opts = opts.withDefaults()
	return &Compiler{
		opts:  opts,
		lib:   precompile.NewLibrary(),
		seeds: seedindex.New(opts.Precompile.Similarity, opts.Precompile.Ham),
	}
}

// Library exposes the current pulse library (for saving, inspection, or
// seeding another compiler). Mutating the returned library directly
// bypasses the seed index; use SetLibrary to swap in an edited one.
func (c *Compiler) Library() *precompile.Library { return c.lib }

// SetLibrary replaces the pulse library (e.g. one loaded from disk) and
// rebuilds the seed index over it — each entry's achieved unitary is
// propagated once here, so later seed lookups cost only similarity
// distances.
func (c *Compiler) SetLibrary(lib *precompile.Library) {
	c.lib = lib
	c.seeds = seedindex.New(c.opts.Precompile.Similarity, c.opts.Precompile.Ham)
	c.seeds.AddLibrary(lib)
}

// Options returns the effective configuration.
func (c *Compiler) Options() Options { return c.opts }

// Prepared is a program after the compilation front end.
type Prepared struct {
	// Physical is the mapped, policy-lowered circuit on device qubits.
	Physical *circuit.Circuit
	// MapResult carries layouts and swap statistics.
	MapResult *mapping.Result
	// Grouping is the policy division of Physical with its group DAG.
	Grouping *grouping.Grouping
	// CrosstalkMetric counts close concurrent CX pairs (§VI-C).
	CrosstalkMetric int
}

// Prepare runs the front end: Toffoli decomposition, crosstalk-aware
// mapping, policy swap lowering and gate grouping.
func (c *Compiler) Prepare(prog *circuit.Circuit) (*Prepared, error) {
	work := prog.DecomposeCCX()
	mapped, err := mapping.Map(work, c.opts.Device, c.opts.Mapping)
	if err != nil {
		return nil, fmt.Errorf("accqoc: mapping: %w", err)
	}
	phys := mapped.Mapped
	if c.opts.Policy.DecomposeSwap {
		phys, err = mapping.DecomposeSwaps(phys, c.opts.Device)
		if err != nil {
			return nil, fmt.Errorf("accqoc: swap lowering: %w", err)
		}
	}
	gr, err := grouping.Divide(phys, c.opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("accqoc: grouping: %w", err)
	}
	return &Prepared{
		Physical:        phys,
		MapResult:       mapped,
		Grouping:        gr,
		CrosstalkMetric: crosstalk.Metric(phys, c.opts.Device),
	}, nil
}

// ProfileResult summarizes static pre-compilation.
type ProfileResult struct {
	Programs     int
	UniqueGroups int
	Stats        *precompile.BuildStats
}

// Profile runs static pre-compilation (§IV): the programs are prepared
// with the configured policy, their groups deduplicated into a category,
// and the category trained into the compiler's library.
func (c *Compiler) Profile(programs []*circuit.Circuit) (*ProfileResult, error) {
	var all []*grouping.Group
	for i, p := range programs {
		prep, err := c.Prepare(p)
		if err != nil {
			return nil, fmt.Errorf("accqoc: profiling program %d: %w", i, err)
		}
		all = append(all, prep.Grouping.Groups...)
	}
	uniq, err := grouping.Deduplicate(all)
	if err != nil {
		return nil, err
	}
	lib, stats, err := precompile.Build(uniq, c.opts.Precompile)
	if err != nil {
		return nil, err
	}
	// Merge into the live library (later profiles extend earlier ones).
	c.lib.Merge(lib)
	c.seeds.AddLibrary(lib)
	return &ProfileResult{Programs: len(programs), UniqueGroups: len(uniq), Stats: stats}, nil
}

// ProfileParallel is Profile with the §V-D worker pool: the similarity MST
// of each group-size class is balance-partitioned across the given number
// of workers and the parts train concurrently.
func (c *Compiler) ProfileParallel(programs []*circuit.Circuit, workers int) (*ProfileResult, error) {
	var all []*grouping.Group
	for i, p := range programs {
		prep, err := c.Prepare(p)
		if err != nil {
			return nil, fmt.Errorf("accqoc: profiling program %d: %w", i, err)
		}
		all = append(all, prep.Grouping.Groups...)
	}
	uniq, err := grouping.Deduplicate(all)
	if err != nil {
		return nil, err
	}
	res, err := precompile.ParallelBuild(uniq, c.opts.Precompile, workers)
	if err != nil {
		return nil, err
	}
	c.lib.Merge(res.Library)
	c.seeds.AddLibrary(res.Library)
	return &ProfileResult{Programs: len(programs), UniqueGroups: len(uniq), Stats: res.Stats}, nil
}

// GroupPlan is the pre-resolution view of one program: the prepared
// circuit plus each group occurrence's canonical library key and
// orientation, computed in a single pass (every group unitary is built
// exactly once). Both the batch Compile path and the serving path resolve
// a plan against their respective libraries; scheduling afterwards is
// lookup-only.
type GroupPlan struct {
	Prepared *Prepared
	// Keys[i] is the canonical library key of occurrence i; Swapped[i]
	// reports that the occurrence mirrors the canonical qubit orientation
	// (its pulse replays with the per-qubit channels exchanged).
	Keys    []string
	Swapped []bool
	// Unique are the occurrences deduplicated by key, in first-occurrence
	// order, with occurrence counts.
	Unique []*grouping.UniqueGroup
}

// PlanGroups runs the compilation front end and the canonical-key pass
// without resolving or training anything.
func (c *Compiler) PlanGroups(prog *circuit.Circuit) (*GroupPlan, error) {
	prep, err := c.Prepare(prog)
	if err != nil {
		return nil, err
	}
	gr := prep.Grouping
	plan := &GroupPlan{
		Prepared: prep,
		Keys:     make([]string, len(gr.Groups)),
		Swapped:  make([]bool, len(gr.Groups)),
	}
	for i, g := range gr.Groups {
		u, uerr := g.Unitary()
		if uerr != nil {
			return nil, uerr
		}
		plan.Keys[i], plan.Swapped[i] = grouping.CanonicalOrientation(u)
	}
	plan.Unique = grouping.DeduplicateKeyed(gr.Groups, plan.Keys)
	return plan, nil
}

// Result seeds a CompileResult with the plan's prepared program and
// occurrence keys — the fields schedule assembly needs. Resolution
// counters (coverage, training cost, latencies) are the caller's to fill.
func (p *GroupPlan) Result() *CompileResult {
	return &CompileResult{
		Prepared: *p.Prepared,
		Keys:     append([]string(nil), p.Keys...),
		Swapped:  append([]bool(nil), p.Swapped...),
	}
}

// CompileResult reports one program's accelerated dynamic compilation.
type CompileResult struct {
	Prepared

	// Keys and Swapped record, per group occurrence, the canonical library
	// key and whether the occurrence mirrors the canonical orientation —
	// resolved once during the key pass so that scheduling never rebuilds
	// a unitary or repeats the orientation search.
	Keys    []string
	Swapped []bool

	// Coverage of group occurrences by the pre-compiled library (§V-A).
	CoverageRate  float64
	CoveredGroups int
	TotalGroups   int

	// Dynamic-compilation cost for the uncovered groups.
	UncoveredUnique    int
	TrainingIterations int
	TrainingTime       time.Duration

	// Latency results (Algorithm 3) against the gate-based baseline.
	OverallLatencyNs   float64
	GateBasedLatencyNs float64
	LatencyReduction   float64 // gate-based / QOC

	// EstimatedFidelity folds gate errors, crosstalk inflation and
	// decoherence over the QOC latency (§II-E accounting).
	EstimatedFidelity float64
}

// Compile runs accelerated dynamic compilation on one program: covered
// groups are free, uncovered groups train in similarity-MST order with
// warm starts, and the overall latency is assembled with Algorithm 3.
// Newly trained pulses are added to the library, so later programs
// benefit.
func (c *Compiler) Compile(prog *circuit.Circuit) (*CompileResult, error) {
	plan, err := c.PlanGroups(prog)
	if err != nil {
		return nil, err
	}
	res := plan.Result()
	gr := plan.Prepared.Grouping

	// Coverage pass (§V-A): split the deduplicated plan into covered and
	// uncovered unique groups.
	res.TotalGroups = len(gr.Groups)
	var uncovered []*grouping.UniqueGroup
	for _, u := range plan.Unique {
		if _, ok := c.lib.Entries[u.Key]; ok {
			res.CoveredGroups += u.Count
			continue
		}
		uncovered = append(uncovered, u)
	}
	if res.TotalGroups > 0 {
		res.CoverageRate = float64(res.CoveredGroups) / float64(res.TotalGroups)
	} else {
		res.CoverageRate = 1
	}
	res.UncoveredUnique = len(uncovered)

	// Train uncovered groups (§V-B/C): MST order with warm starts, with
	// library pulses as seeds for identity-rooted steps.
	start := time.Now()
	sortUnique(uncovered)
	steps, err := precompile.Plan(uncovered, c.opts.Precompile.Similarity)
	if err != nil {
		return nil, err
	}
	for _, e := range precompile.Execute(steps, c.opts.Precompile, compilerStore{c}) {
		if e != nil {
			res.TrainingIterations += e.Iterations
		}
	}
	res.TrainingTime = time.Since(start)

	// Latency assembly (Algorithm 3) over per-occurrence latencies.
	overall, err := latency.OverallGroups(gr, func(i int) (float64, error) {
		e, ok := c.lib.Entries[res.Keys[i]]
		if !ok {
			// The group failed to train within budget: fall back to the
			// gate-based latency of its member gates so the program still
			// compiles end to end.
			return c.gateFallbackNs(gr.Groups[i]), nil
		}
		return e.LatencyNs, nil
	})
	if err != nil {
		return nil, err
	}
	res.OverallLatencyNs = overall
	res.GateBasedLatencyNs = gatepulse.Overall(plan.Prepared.Physical, c.opts.Device.Calibration)
	if overall > 0 {
		res.LatencyReduction = res.GateBasedLatencyNs / overall
	}
	res.EstimatedFidelity = crosstalk.ProgramFidelity(plan.Prepared.Physical, c.opts.Device, overall)
	return res, nil
}

// gateFallbackNs prices an untrained group under the compiler's device.
func (c *Compiler) gateFallbackNs(g *grouping.Group) float64 {
	return GateFallbackNs(g, c.opts.Device.Calibration)
}

// GateFallbackNs prices an untrained group as the sum of its member
// gates' calibrated pulse latencies — the gate-based fallback shared by
// compilation, schedule assembly, and the serving path, so all three
// always agree on an uncovered group's duration.
func GateFallbackNs(g *grouping.Group, cal topology.Calibration) float64 {
	var sum float64
	for _, inst := range g.Gates {
		sum += gatepulse.GateLatency(inst.Name, cal)
	}
	return sum
}

// compilerStore is Compile's Store for the executor: the compiler's
// library, with its seed index lending identity-rooted steps their seeds.
type compilerStore struct{ c *Compiler }

// GetOrTrain trains g unless the library covers it. The result is indexed
// under its training target (within TargetInfidelity of the achieved
// unitary), so the insert costs no propagation and later steps of the
// same compilation can seed from it.
func (s compilerStore) GetOrTrain(g *grouping.UniqueGroup, train func() (*precompile.Trained, error)) (*precompile.Entry, error) {
	if e, ok := s.c.lib.Entries[g.Key]; ok {
		return e, nil
	}
	t, err := train()
	if err != nil {
		// Unreachable in the bracket — left uncovered; Compile's latency
		// fallback prices it gate-based.
		return nil, err
	}
	s.c.lib.Entries[g.Key] = t.Entry
	s.c.seeds.InsertWithUnitary(t.Entry, t.Target)
	return t.Entry, nil
}

// Nearest finds the most similar covered pulse of the same size, admitted
// under similarity.WarmThreshold for the compiler's similarity function.
func (s compilerStore) Nearest(u *cmat.Matrix, numQubits int) (*precompile.Entry, float64, bool) {
	seed, ok := s.c.seeds.Nearest(u, numQubits)
	if !ok {
		return nil, 0, false
	}
	return &precompile.Entry{Key: seed.Key, NumQubits: numQubits, Pulse: seed.Pulse, LatencyNs: seed.LatencyNs}, seed.Distance, true
}
