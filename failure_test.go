package accqoc

// Failure-injection tests: the pipeline must degrade gracefully when QOC
// training cannot converge, rather than wedging or returning nonsense.

import (
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/topology"
)

// strangledOptions makes every 2-qubit group untrainable: the search
// bracket tops out far below the ZZ speed limit.
func strangledOptions(dev *topology.Device) Options {
	o := fastOptions(dev)
	o.Precompile.Search2Q = grape.SearchOptions{MinDuration: 10, MaxDuration: 60, Resolution: 20}
	o.Precompile.Grape.MaxIterations = 60
	return o
}

func TestCompileSurvivesUntrainableGroups(t *testing.T) {
	comp := New(strangledOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.H, []int{0})
	prog.MustAppend(gate.CX, []int{0, 1})
	res, err := comp.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The CX group cannot train in ≤60 ns; it must fall back to the
	// gate-based price rather than fail the compile.
	if res.OverallLatencyNs <= 0 {
		t.Fatal("no latency despite fallback pricing")
	}
	if res.OverallLatencyNs < 974 {
		t.Fatalf("latency %v below a bare CX: fallback did not price the untrained group",
			res.OverallLatencyNs)
	}
}

func TestProfileRecordsFailures(t *testing.T) {
	g := &grouping.Group{
		Qubits: []int{0, 1},
		Gates:  []gate.Instance{gate.MustInstance(gate.CX, []int{0, 1})},
	}
	uniq, err := grouping.Deduplicate([]*grouping.Group{g})
	if err != nil {
		t.Fatal(err)
	}
	cfg := precompile.Config{
		Grape:    grape.Options{TargetInfidelity: 1e-3, MaxIterations: 60, Restarts: -1, Seed: 1},
		Search2Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 60, Resolution: 20},
	}
	lib, stats, err := precompile.Build(uniq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 0 {
		t.Fatal("untrainable group entered the library")
	}
	if len(stats.Failed) != 1 {
		t.Fatalf("failure not recorded: %+v", stats)
	}
}

func TestScheduleWithUntrainedGroups(t *testing.T) {
	comp := New(strangledOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.CX, []int{0, 1})
	sched, err := comp.BuildSchedule(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	// Untrained group: nil pulse but a positive gate-based duration.
	found := false
	for _, sp := range sched.Pulses {
		if sp.Pulse() == nil && sp.DurationNs > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected an untrained group priced gate-based in the schedule")
	}
}

func TestBruteForceSurvivesUntrainableGroups(t *testing.T) {
	comp := New(strangledOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.CX, []int{0, 1})
	res, err := comp.CompileBruteForce(prog, BruteForceOptions{MaxQubits: 2, MaxLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallLatencyNs <= 0 {
		t.Fatal("brute force did not fall back")
	}
}

// TestCompileNilEntryIsUncovered: a nil library entry covers nothing.
// Compile tries to train its group (here it cannot, so the group is
// priced gate-based) instead of dereferencing the entry.
func TestCompileNilEntryIsUncovered(t *testing.T) {
	comp := New(strangledOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.CX, []int{0, 1})
	plan, err := comp.PlanGroups(prog)
	if err != nil {
		t.Fatal(err)
	}
	lib := precompile.NewLibrary()
	for _, key := range plan.Keys {
		lib.Entries[key] = nil
	}
	comp.SetLibrary(lib)
	res, err := comp.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredGroups != 0 || res.UncoveredUnique != len(plan.Unique) {
		t.Fatalf("covered %d, uncovered unique %d: a nil entry counted as coverage", res.CoveredGroups, res.UncoveredUnique)
	}
	if want := gateFallbackNs(plan.Grouping.Groups[0], comp.Options().Device.Calibration); res.OverallLatencyNs != want {
		t.Fatalf("latency %v, want the gate-based price %v", res.OverallLatencyNs, want)
	}
}

// TestBruteForcePricesFailedKeyAtItsRepresentative: Fig. 15's brute force
// prices a key it failed to train at its representative occurrence's
// gate-based latency on every occurrence. Here the windows [CX, X, X] and
// [CX] share CX's key (X·X = I); the first is the representative, so both
// cost CX + 2X, where pricing each occurrence by its own gates would not.
func TestBruteForcePricesFailedKeyAtItsRepresentative(t *testing.T) {
	comp := New(strangledOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.CX, []int{0, 1})
	prog.MustAppend(gate.X, []int{0})
	prog.MustAppend(gate.X, []int{0})
	prog.MustAppend(gate.CX, []int{0, 1})
	res, err := comp.CompileBruteForce(prog, BruteForceOptions{MaxQubits: 2, MaxLayers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 2 || res.UniqueGroups != 1 || res.TrainingIterations != 0 {
		t.Fatalf("%d groups, %d unique, %d iterations: want two untrainable occurrences of one key",
			res.Groups, res.UniqueGroups, res.TrainingIterations)
	}
	cal := comp.Options().Device.Calibration
	rep := gatepulse.GateLatency(gate.CX, cal) + gatepulse.GateLatency(gate.X, cal) + gatepulse.GateLatency(gate.X, cal)
	if res.OverallLatencyNs != rep+rep {
		t.Fatalf("overall latency %v, want both occurrences at the representative's %v", res.OverallLatencyNs, rep)
	}
}
