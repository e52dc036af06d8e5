package accqoc

import (
	"fmt"
	"math/rand"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

func TestBuildScheduleValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	comp := New(fastOptions(topology.Linear(3)))
	sched, err := comp.BuildSchedule(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Pulses) != len(sched.Result.Grouping.Groups) {
		t.Fatalf("schedule has %d pulses for %d groups",
			len(sched.Pulses), len(sched.Result.Grouping.Groups))
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if sched.MakespanNs != sched.Result.OverallLatencyNs {
		t.Fatalf("makespan %v != compile latency %v",
			sched.MakespanNs, sched.Result.OverallLatencyNs)
	}
	// Pulses are sorted by start time.
	for i := 1; i < len(sched.Pulses); i++ {
		if sched.Pulses[i].StartNs < sched.Pulses[i-1].StartNs {
			t.Fatal("schedule not sorted by start time")
		}
	}
	// All trained groups carry a waveform.
	for _, sp := range sched.Pulses {
		p := sp.Pulse()
		if p == nil {
			continue
		}
		if p.Duration() != sp.DurationNs {
			t.Fatalf("pulse duration %v disagrees with slot %v",
				p.Duration(), sp.DurationNs)
		}
	}
}

func newEmpty(n int) *circuit.Circuit { return circuit.New(n) }

func TestScheduleEmptyProgram(t *testing.T) {
	comp := New(fastOptions(topology.Linear(2)))
	sched, err := comp.BuildSchedule(newEmpty(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Pulses) != 0 || sched.MakespanNs != 0 {
		t.Fatalf("empty schedule: %+v", sched)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
}

// newEmpty builds an empty circuit (helper kept beside its only use).

// handSchedule hand-builds a minimal schedule (no training) for Validate
// checks.
func handSchedule(t *testing.T) *Schedule {
	t.Helper()
	c := circuit.New(1)
	c.MustAppend(gate.H, []int{0})
	gr, err := grouping.Divide(c, grouping.Map2b4l)
	if err != nil || len(gr.Groups) == 0 {
		t.Fatalf("grouping: %d groups, err %v", len(gr.Groups), err)
	}
	s := &Schedule{
		Result:     &CompileResult{GroupPlan: &GroupPlan{Prepared: &Prepared{Grouping: gr}}},
		MakespanNs: 100,
	}
	for i := range gr.Groups {
		s.Pulses = append(s.Pulses, ScheduledPulse{
			Group: i, Qubits: gr.Groups[i].Qubits, StartNs: 0, DurationNs: 100,
		})
	}
	return s
}

// TestValidateMakespanTwoSided covers both failure directions of the
// makespan consistency check. The inflated case is the regression: the
// old one-sided check accepted any makespan at or above the last pulse
// end.
func TestValidateMakespanTwoSided(t *testing.T) {
	if s := handSchedule(t); s.Validate() != nil {
		t.Fatalf("consistent schedule rejected: %v", s.Validate())
	}

	inflated := handSchedule(t)
	inflated.MakespanNs = 250 // above every pulse end
	if inflated.Validate() == nil {
		t.Fatal("inflated makespan accepted (one-sided check regression)")
	}

	deflated := handSchedule(t)
	deflated.MakespanNs = 40 // below the last pulse end
	if deflated.Validate() == nil {
		t.Fatal("deflated makespan accepted")
	}
}

// TestValidateSlotOrder: Validate checks per-qubit exclusivity in slot
// order, sorting a hand-shuffled slot list first. A served schedule still
// validates after a shuffle; a slot listed twice overlaps itself and is
// refused, naming its first qubit, in either order; and two independent
// groups placed on one qubit overlap whichever comes first in the list.
func TestValidateSlotOrder(t *testing.T) {
	comp := New(Options{Device: topology.Melbourne(), Policy: grouping.Map2b4l})
	p, err := workload.FromSpec("named:4gt4-v0")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := comp.PlanGroups(p.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := AssembleSchedule(&CompileResult{GroupPlan: plan}, syntheticLibrary(plan, false), comp.Options().Device.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	shuffle := func(slots []ScheduledPulse) {
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	}
	shuffle(sched.Pulses)
	if err := sched.Validate(); err != nil {
		t.Fatalf("shuffled valid schedule refused: %v", err)
	}
	i := len(sched.Pulses) / 2
	for sched.Pulses[i].DurationNs == 0 {
		i++ // a zero-duration slot cannot overlap itself
	}
	dup := sched.Pulses[i]
	sched.Pulses = append(sched.Pulses, dup)
	want := fmt.Sprintf("accqoc: overlapping pulses on qubit %d", dup.Qubits[0])
	for round := 0; round < 3; round++ {
		if err := sched.Validate(); err == nil || err.Error() != want {
			t.Fatalf("round %d: a slot listed twice gave %v, want %q", round, err, want)
		}
		shuffle(sched.Pulses)
	}

	c := circuit.New(2)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	gr, err := grouping.Divide(c, grouping.Map2b4l)
	if err != nil || len(gr.Groups) != 2 || len(gr.Preds[1]) != 0 {
		t.Fatalf("want two independent groups, have %d (err %v)", len(gr.Groups), err)
	}
	hand := &Schedule{
		Result:     &CompileResult{GroupPlan: &GroupPlan{Prepared: &Prepared{Grouping: gr}}},
		MakespanNs: 100,
		Pulses: []ScheduledPulse{
			{Group: 1, Qubits: []int{0}, StartNs: 50, DurationNs: 50},
			{Group: 0, Qubits: []int{0}, StartNs: 0, DurationNs: 100},
		},
	}
	for round := 0; round < 2; round++ {
		if err := hand.Validate(); err == nil || err.Error() != "accqoc: overlapping pulses on qubit 0" {
			t.Fatalf("round %d: overlapping independent groups gave %v", round, err)
		}
		hand.Pulses[0], hand.Pulses[1] = hand.Pulses[1], hand.Pulses[0]
	}
}

// TestAssembleScheduleLookupOnly pins the BuildSchedule bugfix: schedule
// assembly must consume the per-occurrence keys threaded through the
// CompileResult instead of recomputing each group's unitary and redoing
// the PulseFor orientation search. The sentinel key is reachable only
// through the threaded keys — a fresh unitary-based lookup could never
// produce it — so a regression to recompute-and-look-up fails loudly.
func TestAssembleScheduleLookupOnly(t *testing.T) {
	comp := New(fastOptions(topology.Linear(2)))
	c := circuit.New(2)
	c.MustAppend(gate.H, []int{0})
	plan, err := comp.PlanGroups(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != len(plan.Prepared.Grouping.Groups) {
		t.Fatalf("plan has %d keys for %d groups", len(plan.Keys), len(plan.Prepared.Grouping.Groups))
	}

	res := &CompileResult{GroupPlan: plan}
	lib := precompile.NewLibrary()
	sentinel := &precompile.Entry{
		Key:       "sentinel",
		NumQubits: 1,
		Pulse:     pulse.New([]string{"x0", "y0"}, 4, 2),
		LatencyNs: 123,
	}
	lib.Entries["sentinel"] = sentinel
	for i := range res.Keys {
		res.Keys[i] = "sentinel"
	}
	sched, err := AssembleSchedule(res, lib.Entries, comp.Options().Device.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sched.Pulses {
		if sp.Key != "sentinel" {
			t.Fatalf("slot resolved %q — scheduling did not use the threaded key", sp.Key)
		}
		if sp.DurationNs != 123 {
			t.Fatalf("slot priced %v, want the sentinel entry's 123", sp.DurationNs)
		}
	}
}

// TestAssembleScheduleMirrored: a mirrored occurrence gets the library
// pulse with its per-qubit channels exchanged, and the slot says so.
func TestAssembleScheduleMirrored(t *testing.T) {
	comp := New(fastOptions(topology.Linear(2)))
	c := circuit.New(2)
	c.MustAppend(gate.CX, []int{0, 1})
	plan, err := comp.PlanGroups(c)
	if err != nil {
		t.Fatal(err)
	}
	res := &CompileResult{GroupPlan: plan}
	// Force the mirrored orientation for every occurrence.
	for i := range res.Swapped {
		res.Swapped[i] = true
	}
	p := pulse.New([]string{"x0", "y0", "x1", "y1"}, 2, 1)
	p.Amps[0][0], p.Amps[1][0], p.Amps[2][0], p.Amps[3][0] = 1, 2, 3, 4
	lib := precompile.NewLibrary()
	for _, key := range res.Keys {
		lib.Entries[key] = &precompile.Entry{Key: key, NumQubits: 2, Pulse: p, LatencyNs: 2}
	}
	sched, err := AssembleSchedule(res, lib.Entries, comp.Options().Device.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	sp := sched.Pulses[0]
	if !sp.Mirrored {
		t.Fatal("mirrored occurrence not flagged")
	}
	if sp.Entry.Pulse != p {
		t.Fatal("the slot does not carry the library entry")
	}
	oriented := sp.Pulse()
	if oriented.Amps[0][0] != 3 || oriented.Amps[2][0] != 1 {
		t.Fatalf("channels not exchanged: %v", oriented.Amps)
	}
	// The library's canonical pulse is untouched.
	if p.Amps[0][0] != 1 {
		t.Fatal("orientation mutated the stored pulse")
	}
}

// TestBuildScheduleKeysMatchCompile: the schedule's waveform refs are
// exactly the keys Compile resolved, and each slot's pulse is the library
// entry for its key (no re-derivation anywhere).
func TestBuildScheduleKeysMatchCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	comp := New(fastOptions(topology.Linear(3)))
	sched, err := comp.BuildSchedule(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	res := sched.Result
	for _, sp := range sched.Pulses {
		if sp.Entry == nil {
			continue
		}
		if sp.Key != res.Keys[sp.Group] {
			t.Fatalf("slot %d carries key %.16q, compile resolved %.16q", sp.Group, sp.Key, res.Keys[sp.Group])
		}
		e, ok := comp.Library().Entries[sp.Key]
		if !ok {
			t.Fatalf("slot %d references a key missing from the library", sp.Group)
		}
		if sp.DurationNs != e.LatencyNs {
			t.Fatalf("slot %d duration %v != entry latency %v", sp.Group, sp.DurationNs, e.LatencyNs)
		}
	}
}
