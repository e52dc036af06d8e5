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
	"accqoc/internal/grouping"
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
	// DAG is Physical's dependency DAG, built once and read by grouping
	// and Estimate.
	DAG *circuit.DAG
	// MapResult carries layouts and swap statistics.
	MapResult *mapping.Result
	// Grouping is the policy division of Physical with its group DAG.
	Grouping *grouping.Grouping
}

// Prepare runs the front end: Toffoli decomposition, crosstalk-aware
// mapping, policy swap lowering and gate grouping.
func (c *Compiler) Prepare(prog *circuit.Circuit) (*Prepared, error) {
	work := prog.DecomposeCCX()
	mapped, err := mapping.Map(work, c.opts.Device, c.opts.Mapping)
	if err != nil {
		return nil, fmt.Errorf("accqoc: %w", err) // names its package already
	}
	phys := mapped.Mapped
	if c.opts.Policy.DecomposeSwap {
		phys, err = mapping.DecomposeSwaps(phys, c.opts.Device)
		if err != nil {
			return nil, fmt.Errorf("accqoc: swap lowering: %w", err)
		}
	}
	dag := circuit.BuildDAG(phys)
	gr, err := grouping.DivideDAG(dag, c.opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("accqoc: %w", err)
	}
	return &Prepared{Physical: phys, DAG: dag, MapResult: mapped, Grouping: gr}, nil
}

// ProfileResult summarizes static pre-compilation.
type ProfileResult struct {
	Programs     int
	UniqueGroups int
	Stats        *precompile.BuildStats
}

// Profile runs static pre-compilation (§IV): the programs are prepared
// with the configured policy, their groups deduplicated into a category,
// and the category trained into the compiler's library. It is
// ProfileParallel on one worker.
func (c *Compiler) Profile(programs []*circuit.Circuit) (*ProfileResult, error) {
	return c.ProfileParallel(programs, 1)
}

// ProfileParallel is Profile with the §V-D worker pool: the similarity MST
// of each group-size class is balance-partitioned across the given number
// of workers and the parts train concurrently. Later profiles extend the
// library earlier ones built.
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
// orientation, computed in one grouping.CanonicalKeys pass (one unitary
// per distinct group content). Both the batch Compile path and the
// serving path resolve a plan against their respective libraries;
// scheduling afterwards is lookup-only.
type GroupPlan struct {
	*Prepared
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
	return planPrepared(prep)
}

// planPrepared runs the canonical-key pass over a prepared program's
// groups.
func planPrepared(prep *Prepared) (*GroupPlan, error) {
	groups := prep.Grouping.Groups
	keys, swapped, err := grouping.CanonicalKeys(groups)
	if err != nil {
		return nil, err
	}
	return &GroupPlan{Prepared: prep, Keys: keys, Swapped: swapped, Unique: grouping.DeduplicateKeyed(groups, keys)}, nil
}

// CompileResult reports one program's accelerated dynamic compilation:
// its plan (the prepared program with every occurrence's canonical key
// and orientation, resolved once during the key pass so that scheduling
// never rebuilds a unitary or repeats the orientation search), the
// resolution counters and the estimates.
type CompileResult struct {
	*GroupPlan

	// Coverage of group occurrences by the pre-compiled library (§V-A).
	CoverageRate  float64
	CoveredGroups int
	TotalGroups   int

	// Dynamic-compilation cost for the uncovered groups.
	UncoveredUnique    int
	TrainingIterations int
	TrainingTime       time.Duration

	// Latency results (Algorithm 3) against the gate-based baseline.
	Estimates
}

// Compile runs accelerated dynamic compilation on one program: covered
// groups are free, uncovered groups train in similarity-MST order with
// warm starts, and the overall latency is assembled with Algorithm 3.
// Newly trained pulses are added to the library, so later programs
// benefit.
func (c *Compiler) Compile(prog *circuit.Circuit) (*CompileResult, error) {
	res, _, err := c.compile(prog)
	return res, err
}

// compile is Compile, also returning the timeline it priced the result
// on, so BuildSchedule lays the slots out without a second Algorithm 3
// pass.
func (c *Compiler) compile(prog *circuit.Circuit) (*CompileResult, *timeline, error) {
	plan, err := c.PlanGroups(prog)
	if err != nil {
		return nil, nil, err
	}
	res := &CompileResult{GroupPlan: plan, TotalGroups: len(plan.Grouping.Groups)}

	// Coverage pass (§V-A): split the deduplicated plan into covered and
	// uncovered unique groups.
	var uncovered []*grouping.UniqueGroup
	for _, u := range plan.Unique {
		if c.lib.Entries[u.Key] != nil {
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
		return nil, nil, err
	}
	for _, e := range precompile.Execute(steps, c.opts.Precompile, compilerStore{c}) {
		if e != nil {
			res.TrainingIterations += e.Iterations
		}
	}
	res.TrainingTime = time.Since(start)

	// A group that failed to train within budget stays out of the
	// library: the timeline prices it gate-based so the program still
	// compiles end to end.
	tl, err := plan.lay(c.lib.Entries, c.opts.Device.Calibration)
	if err != nil {
		return nil, nil, err
	}
	res.Estimates = Estimate(plan.DAG, c.opts.Device, tl.makespan)
	return res, tl, nil
}

// compilerStore is Compile's Store for the executor: the compiler's
// library, with its seed index lending identity-rooted steps their seeds.
type compilerStore struct{ c *Compiler }

// GetOrTrain trains g unless the library covers it (a nil entry covers
// nothing). The result is indexed under its training target (within
// TargetInfidelity of the achieved unitary), so the insert costs no
// propagation and later steps of the same compilation can seed from it.
func (s compilerStore) GetOrTrain(g *grouping.UniqueGroup, train func() (*precompile.Trained, error)) (*precompile.Entry, error) {
	if e := s.c.lib.Entries[g.Key]; e != nil {
		return e, nil
	}
	t, err := train()
	if err != nil {
		// Unreachable in the bracket — left uncovered; Compile's timeline
		// prices it gate-based.
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
