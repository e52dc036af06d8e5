package accqoc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"accqoc/internal/circuit"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grouping"
	"accqoc/internal/latency"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/topology"
)

// This file is the back end every path runs once a plan's groups are
// resolved (Compile, BuildSchedule, CompileBruteForce and the serving
// tier): one pricing pass with one Algorithm 3 run over the plan, the
// slot list for callers that emit a schedule, and the estimates against
// the gate-based baseline.

// timeline is a resolved plan laid out by Algorithm 3.
type timeline struct {
	plan *GroupPlan
	// entries[i] is occurrence i's library entry, nil when it is
	// uncovered and priced gate-based.
	entries []*precompile.Entry
	// durations[i] is occurrence i's price and starts[i] its ASAP start.
	durations, starts []float64
	makespan          float64
}

// lay is the back end's one pricing pass: occurrence i costs its entry's
// latency, or gateFallbackNs when entries holds no entry (or a nil one)
// for its key. Algorithm 3 then places every occurrence once.
func (p *GroupPlan) lay(entries map[string]*precompile.Entry, cal topology.Calibration) (*timeline, error) {
	gr := p.Grouping
	n := len(gr.Groups)
	if len(p.Keys) != n || len(p.Swapped) != n {
		return nil, fmt.Errorf("accqoc: schedule needs %d occurrence keys, have %d keys / %d flags",
			n, len(p.Keys), len(p.Swapped))
	}
	t := &timeline{plan: p, entries: make([]*precompile.Entry, n), durations: make([]float64, n)}
	for i, key := range p.Keys {
		if e := entries[key]; e != nil {
			t.entries[i], t.durations[i] = e, e.LatencyNs
		} else {
			t.durations[i] = gateFallbackNs(gr.Groups[i], cal)
		}
	}
	var err error
	if t.starts, t.makespan, err = latency.Schedule(gr, t.durations); err != nil {
		return nil, err
	}
	return t, nil
}

// gateFallbackNs prices an untrained group as the sum of its member
// gates' calibrated pulse latencies, so every path agrees on an uncovered
// group's duration.
func gateFallbackNs(g *grouping.Group, cal topology.Calibration) float64 {
	var sum float64
	for _, inst := range g.Gates {
		sum += gatepulse.GateLatency(inst.Name, cal)
	}
	return sum
}

// Makespan prices a resolved plan against entries and returns its
// overall latency under Algorithm 3 — the back end for callers that need
// no slot list.
func (p *GroupPlan) Makespan(entries map[string]*precompile.Entry, cal topology.Calibration) (float64, error) {
	t, err := p.lay(entries, cal)
	if err != nil {
		return 0, err
	}
	return t.makespan, nil
}

// Estimates set a program's QOC latency against the gate-based baseline.
type Estimates struct {
	// OverallLatencyNs is the QOC latency (Algorithm 3's makespan);
	// GateBasedLatencyNs the gate-based compilation baseline's (§II-C).
	OverallLatencyNs   float64
	GateBasedLatencyNs float64
	LatencyReduction   float64 // gate-based / QOC
	// EstimatedFidelity folds gate errors, crosstalk inflation and
	// decoherence over the QOC latency (§II-E accounting).
	EstimatedFidelity float64
}

// Estimate prices the physical program, given by its dependency DAG
// (Prepared.DAG), gate-based and folds its fidelity over a QOC latency of
// overallNs.
func Estimate(dag *circuit.DAG, dev *topology.Device, overallNs float64) Estimates {
	est := Estimates{
		OverallLatencyNs:   overallNs,
		GateBasedLatencyNs: gatepulse.OverallDAG(dag, dev.Calibration),
	}
	if overallNs > 0 {
		est.LatencyReduction = est.GateBasedLatencyNs / overallNs
	}
	est.EstimatedFidelity = crosstalk.ProgramFidelityDAG(dag, dev, overallNs)
	return est
}

// ScheduledPulse is one group occurrence placed on the program timeline.
type ScheduledPulse struct {
	// Group indexes into Schedule.Result.Grouping.Groups.
	Group int
	// Qubits are the physical qubits the pulse drives: the group's own
	// qubit list, shared with the grouping (read-only).
	Qubits []int
	// StartNs is the ASAP start time from Algorithm 3.
	StartNs float64
	// DurationNs is the group's latency (pulse duration, or the
	// gate-based fallback price).
	DurationNs float64
	// Entry is the library entry whose pulse drives this slot, in its
	// canonical orientation; nil for a group that failed to train and
	// falls back to gate-based execution.
	Entry *precompile.Entry
	// Key is the library reference of the waveform driving this slot (the
	// group's canonical key); empty for gate-based fallback slots.
	Key string
	// Mirrored marks occurrences whose qubit order is the mirror of the
	// library pulse's canonical orientation: the drive channels exchange
	// on replay.
	Mirrored bool
}

// Pulse returns the slot's channel-correct waveform: a copy of the
// entry's canonical pulse, with the per-qubit channels exchanged when the
// slot is mirrored. Nil for gate-based fallback slots. Each call makes a
// fresh copy; the schedule itself never orients a pulse.
func (sp ScheduledPulse) Pulse() *pulse.Pulse {
	if sp.Entry == nil {
		return nil
	}
	return precompile.OrientPulse(sp.Entry.Pulse, sp.Mirrored)
}

// Schedule holds a fully scheduled program.
type Schedule struct {
	Result *CompileResult
	// Pulses lists every group's slot ordered by start time, then group.
	Pulses []ScheduledPulse
	// MakespanNs is the program's overall latency, the end of the last
	// slot.
	MakespanNs float64
}

// BuildSchedule compiles a program and lays its group pulses out on the
// timeline: each group starts when its DAG predecessors finish. This is
// the artifact a control stack would hand to the waveform generators.
// The slots come from the timeline Compile priced the program on — pure
// library lookup, with no unitary recomputation and no second Algorithm 3
// pass.
func (c *Compiler) BuildSchedule(prog *circuit.Circuit) (*Schedule, error) {
	res, tl, err := c.compile(prog)
	if err != nil {
		return nil, err
	}
	return tl.schedule(res), nil
}

// AssembleSchedule lays a resolved compilation out on the timeline — the
// server's circuit endpoint runs it over the entries its request
// resolved. res must carry the per-occurrence Keys and Swapped flags
// recorded by the key pass; a key entries does not cover prices the group
// gate-based, consistent with Compile. Scheduling is lookup-only: no
// group unitary is rebuilt, no orientation search is repeated and no
// pulse is copied.
func AssembleSchedule(res *CompileResult, entries map[string]*precompile.Entry, cal topology.Calibration) (*Schedule, error) {
	t, err := res.lay(entries, cal)
	if err != nil {
		return nil, err
	}
	return t.schedule(res), nil
}

// schedule lists the timeline's slots ordered by start time, then group.
// A slot names its entry, key and orientation only when the entry has a
// pulse to drive.
func (t *timeline) schedule(res *CompileResult) *Schedule {
	groups := t.plan.Grouping.Groups
	slots := make([]ScheduledPulse, len(groups))
	for i, g := range groups {
		slots[i] = ScheduledPulse{Group: i, Qubits: g.Qubits, StartNs: t.starts[i], DurationNs: t.durations[i]}
		if e := t.entries[i]; e != nil && e.Pulse != nil {
			slots[i].Entry, slots[i].Key, slots[i].Mirrored = e, t.plan.Keys[i], t.plan.Swapped[i]
		}
	}
	slices.SortFunc(slots, slotOrder)
	return &Schedule{Result: res, Pulses: slots, MakespanNs: t.makespan}
}

// slotOrder orders slots by start time, then group.
func slotOrder(a, b ScheduledPulse) int {
	if c := cmp.Compare(a.StartNs, b.StartNs); c != 0 {
		return c
	}
	return a.Group - b.Group
}

// Validate checks the schedule's structural invariants: no overlapping
// pulses on one qubit, dependencies respected, makespan consistent.
func (s *Schedule) Validate() error {
	gr := s.Result.Grouping
	start := make([]float64, len(gr.Groups))
	end := make([]float64, len(gr.Groups))
	for _, sp := range s.Pulses {
		start[sp.Group] = sp.StartNs
		end[sp.Group] = sp.StartNs + sp.DurationNs
	}
	for i := range gr.Groups {
		for _, p := range gr.Preds[i] {
			if start[i] < end[p]-1e-9 {
				return fmt.Errorf("accqoc: schedule violates dependency %d→%d", p, i)
			}
		}
	}
	// Per-qubit exclusivity: in slot order (the order schedule emits;
	// a hand-built list is sorted into it) each slot must start no
	// earlier than the previous slot on each of its qubits ended.
	slots := s.Pulses
	if !slices.IsSortedFunc(slots, slotOrder) {
		slots = slices.Clone(slots)
		slices.SortFunc(slots, slotOrder)
	}
	lo, hi := 0, -1 // the slots' qubit range, empty while hi < lo
	for _, sp := range slots {
		for _, q := range sp.Qubits {
			if hi < lo {
				lo, hi = q, q
			}
			lo, hi = min(lo, q), max(hi, q)
		}
	}
	last := make([]float64, hi-lo+1) // previous slot end per qubit
	for i := range last {
		last[i] = math.Inf(-1)
	}
	for _, sp := range slots {
		for _, q := range sp.Qubits {
			if sp.StartNs < last[q-lo]-1e-9 {
				return fmt.Errorf("accqoc: overlapping pulses on qubit %d", q)
			}
			last[q-lo] = sp.StartNs + sp.DurationNs
		}
	}
	var maxEnd float64
	for _, e := range end {
		if e > maxEnd {
			maxEnd = e
		}
	}
	// Two-sided: an inflated makespan is as wrong as a deflated one — a
	// control stack would pad the program with dead time (decoherence per
	// §II-E) while reporting a latency nobody achieves.
	if math.Abs(maxEnd-s.MakespanNs) > 1e-9 {
		return fmt.Errorf("accqoc: makespan %v disagrees with last pulse end %v", s.MakespanNs, maxEnd)
	}
	return nil
}
