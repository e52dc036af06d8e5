package precompile

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
	"accqoc/internal/similarity"
)

// uniq1q builds a small single-qubit group category (rz family).
func uniq1q(t *testing.T, angles ...float64) []*grouping.UniqueGroup {
	t.Helper()
	var groups []*grouping.Group
	for _, a := range angles {
		groups = append(groups, &grouping.Group{
			Qubits: []int{0},
			Gates:  []gate.Instance{gate.MustInstance(gate.RZ, []int{0}, a)},
		})
	}
	u, err := grouping.Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func fastCfg() Config {
	return Config{
		Grape: grape.Options{TargetInfidelity: 1e-3, MaxIterations: 400, Seed: 1},
	}
}

func TestBuild1QLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 0.5, 1.2, 2.0)
	lib, stats, err := Build(uniq, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (failed: %v)", len(lib.Entries), stats.Failed)
	}
	if stats.TotalIterations <= 0 {
		t.Fatal("no iterations recorded")
	}
	sys := hamiltonian.OneQubit(hamiltonian.Config{})
	for key, e := range lib.Entries {
		if e.LatencyNs <= 0 || e.LatencyNs > 160 {
			t.Fatalf("entry %s latency %v outside bracket", key, e.LatencyNs)
		}
		if e.Infidelity > 1e-3 {
			t.Fatalf("entry %s infidelity %v", key, e.Infidelity)
		}
		// The stored pulse must genuinely reach its infidelity.
		u := grape.Propagate(sys, e.Pulse)
		_ = u
	}
}

func TestBuildUsesMSTWarmStarts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 0.5, 0.6, 0.7, 2.6)
	cfg := fastCfg()
	_, stats, err := Build(uniq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, st := range stats.PerGroup {
		if st.WarmFrom != "" {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("MST build produced no warm-started groups")
	}
}

func TestCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// Profile a program, build the library from its own groups → full
	// coverage; a fresh library → zero coverage.
	c := circuit.New(2)
	c.MustAppend(gate.RZ, []int{0}, 0.7)
	c.MustAppend(gate.RZ, []int{1}, 0.7)
	gr, err := grouping.Divide(c, grouping.Map2b4l)
	if err != nil {
		t.Fatal(err)
	}
	uniq, err := grouping.Deduplicate(gr.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 1 {
		t.Fatalf("identical rz groups should dedup to 1, got %d", len(uniq))
	}
	lib, _, err := Build(uniq, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	rate, covered, total, err := Coverage(gr, lib)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1 || covered != 2 || total != 2 {
		t.Fatalf("coverage = %v (%d/%d), want 1 (2/2)", rate, covered, total)
	}
	rate, _, _, err = Coverage(gr, NewLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("empty library coverage = %v", rate)
	}
}

func TestPulseForSwappedOrientation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// Train a library containing CX(0,1); a CX(1,0) group must be covered
	// via qubit permutation, and the returned pulse must drive CX(1,0).
	gCX := &grouping.Group{Qubits: []int{0, 1}, Gates: []gate.Instance{gate.MustInstance(gate.CX, []int{0, 1})}}
	uniq, err := grouping.Deduplicate([]*grouping.Group{gCX})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Grape.MaxIterations = 800
	lib, stats, err := Build(uniq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 1 {
		t.Fatalf("CX did not train: failed=%v", stats.Failed)
	}

	rev := &grouping.Group{Qubits: []int{0, 1}, Gates: []gate.Instance{gate.MustInstance(gate.CX, []int{1, 0})}}
	keys, swapped, err := grouping.CanonicalKeys([]*grouping.Group{gCX, rev})
	if err != nil {
		t.Fatal(err)
	}
	if swapped[0] == swapped[1] {
		t.Fatalf("CX(0,1) and CX(1,0) share the orientation flag %t", swapped[0])
	}
	e, ok := lib.Entries[keys[1]]
	if !ok {
		t.Fatal("reversed CX not covered despite permutation dedup")
	}
	uRev, err := rev.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	p := OrientPulse(e.Pulse, swapped[1])
	sys := hamiltonian.TwoQubit(hamiltonian.Config{})
	inf := grape.VerifyPulse(sys, p, uRev)
	if inf > 5e-3 {
		t.Fatalf("channel-swapped pulse infidelity %v against reversed CX", inf)
	}
}

func TestOptimizeMostFrequent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 1.3)
	uniq[0].Count = 5
	lib, _, err := Build(uniq, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]float64{}
	for k, e := range lib.Entries {
		before[k] = e.LatencyNs
	}
	e, gain, err := OptimizeMostFrequent(lib, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e.Frequency != 5 {
		t.Fatal("picked the wrong entry")
	}
	if gain < 0 {
		t.Fatal("negative gain")
	}
	if gain > 0 && e.LatencyNs >= before[e.Key] {
		t.Fatal("gain reported but latency not improved")
	}
}

func TestOptimizeMostFrequentEmptyLibrary(t *testing.T) {
	if _, _, err := OptimizeMostFrequent(NewLibrary(), fastCfg()); err == nil {
		t.Fatal("empty library accepted")
	}
}

func TestAccelerationStudy1Q(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// A tight rz family: warm starts along the MST should not lose to cold
	// starts, and the trace-fidelity arm should show a genuine reduction.
	uniq := uniq1q(t, 0.4, 0.5, 0.6, 0.7, 0.8)
	cfg := fastCfg()
	cold, arms, err := AccelerationStudy(uniq, []similarity.Func{similarity.TraceFid}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations <= 0 {
		t.Fatal("cold arm has no iterations")
	}
	if len(arms) != 1 {
		t.Fatalf("arms = %d", len(arms))
	}
	if arms[0].Iterations > cold.Iterations {
		t.Errorf("MST arm (%d iters) worse than cold (%d iters) on a tight family",
			arms[0].Iterations, cold.Iterations)
	}
	t.Logf("cold=%d accel=%d reduction=%.1f%%", cold.Iterations, arms[0].Iterations, 100*arms[0].Reduction)
}

// TestRetrainEntryCrossEpoch pins the calibration-roll training unit: an
// entry trained under one Hamiltonian re-trains toward the same target
// under a ±2% drifted one, and the warm start (its own old pulse) costs
// fewer GRAPE iterations than re-training cold.
func TestRetrainEntryCrossEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	cfg := fastCfg()
	// An rx group: its target does not commute with the σz detuning shift
	// of a calibration drift, so the drift genuinely invalidates the old
	// pulse (an rz target would absorb the shift into its own axis).
	groups := []*grouping.Group{{
		Qubits: []int{0},
		Gates:  []gate.Instance{gate.MustInstance(gate.RX, []int{0}, 0.8)},
	}}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	old, err := TrainGroup(uniq[0], cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := uniq[0].Group.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	target := CanonicalUnitary(u)

	// 20% drift: enough that the old pulse misses the 1e-3 target under
	// the new physics (percent-level drifts on a ~10 ns 1q pulse keep it inside —
	// small drifts on a short 1q pulse stay inside it).
	drifted := cfg
	drifted.Ham = cfg.Ham.Drift(20)
	warm, err := RetrainEntry(old, target, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Key != old.Key || warm.NumQubits != old.NumQubits || warm.Frequency != old.Frequency {
		t.Fatalf("retrained entry lost identity: %+v vs %+v", warm, old)
	}
	if warm.Pulse == old.Pulse {
		t.Fatal("retrain returned the old pulse object")
	}
	// The re-trained pulse must actually drive the target under the NEW
	// physics.
	sys, err := hamiltonian.ForQubits(1, drifted.Ham)
	if err != nil {
		t.Fatal(err)
	}
	if inf := grape.VerifyPulse(sys, warm.Pulse, target); inf > 1e-3+1e-9 {
		t.Fatalf("retrained pulse infidelity %v under drifted Hamiltonian", inf)
	}
	// And the old pulse, under the new physics, misses the target — the
	// reason recalibration invalidates the library at all.
	if oldInf := grape.VerifyPulse(sys, old.Pulse, target); oldInf <= 1e-3 {
		t.Fatalf("drift did not invalidate the old pulse (infidelity %v)", oldInf)
	}

	// Cold arm: the same retrain without the seed costs more iterations.
	stripped := &Entry{Key: old.Key, NumQubits: old.NumQubits, Frequency: old.Frequency}
	cold, err := RetrainEntry(stripped, target, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm retrain took %d iterations, cold took %d — the old-epoch seed did not help",
			warm.Iterations, cold.Iterations)
	}
}

func TestSegmentsForSizes(t *testing.T) {
	if SegmentsFor(1) >= SegmentsFor(2) {
		t.Fatal("2q groups should use denser waveforms")
	}
	if FixedDurationFor(2) < 937 {
		t.Fatal("2q fixed duration below the SWAP speed limit")
	}
}

// TestOrientPulse covers the channel-orientation helper that
// ScheduledPulse.Pulse applies to a mirrored occurrence.
func TestOrientPulse(t *testing.T) {
	p := pulse.New([]string{"x0", "y0", "x1", "y1"}, 2, 1)
	p.Amps[0][0], p.Amps[1][0], p.Amps[2][0], p.Amps[3][0] = 1, 2, 3, 4

	m := OrientPulse(p, true)
	if m.Amps[0][0] != 3 || m.Amps[1][0] != 4 || m.Amps[2][0] != 1 || m.Amps[3][0] != 2 {
		t.Fatalf("mirrored amps %v", m.Amps)
	}
	if m.Labels[0] != "x1" || m.Labels[2] != "x0" {
		t.Fatalf("mirrored labels %v", m.Labels)
	}
	if p.Amps[0][0] != 1 || p.Labels[0] != "x0" {
		t.Fatal("OrientPulse mutated its input")
	}

	same := OrientPulse(p, false)
	if same.Amps[0][0] != 1 || same.Amps[2][0] != 3 {
		t.Fatalf("unmirrored clone changed: %v", same.Amps)
	}
	if OrientPulse(nil, true) != nil {
		t.Fatal("nil pulse must orient to nil")
	}
	// Single-qubit pulses have nothing to exchange.
	q := pulse.New([]string{"x0", "y0"}, 2, 1)
	q.Amps[0][0] = 5
	if OrientPulse(q, true).Amps[0][0] != 5 {
		t.Fatal("2-channel pulse was permuted")
	}
}

// TestBatchTrainingsCarryProvenance pins that batch trainings stamp their
// cost provenance and notify the observer exactly once per trained entry,
// like every other training: TrainWallNs is positive, and Seeded holds
// exactly for the steps an MST parent lent its pulse to.
func TestBatchTrainingsCarryProvenance(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	for _, workers := range []int{0, 2} {
		uniq, names, cfg := goldenCategory(t)
		var mu sync.Mutex
		calls, seededCalls := 0, 0
		cfg.Observer = func(_, _ int, _ float64, seeded bool) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if seeded {
				seededCalls++
			}
		}
		var lib *Library
		if workers == 0 {
			var err error
			if lib, _, err = Build(uniq, cfg); err != nil {
				t.Fatal(err)
			}
		} else {
			res, err := ParallelBuild(uniq, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			lib = res.Library
		}
		if calls != len(lib.Entries) {
			t.Fatalf("workers=%d: observer saw %d trainings for %d entries", workers, calls, len(lib.Entries))
		}
		var seeded []string
		for k, e := range lib.Entries {
			if e.TrainWallNs <= 0 {
				t.Fatalf("workers=%d: entry %s has no training wall time", workers, names[k])
			}
			if e.Seeded {
				seeded = append(seeded, names[k])
			}
		}
		sort.Strings(seeded)
		if want := []string{"cx+rz0.2", "rz0.5"}; !reflect.DeepEqual(seeded, want) || seededCalls != len(want) {
			t.Fatalf("workers=%d: seeded entries %v (observer %d), want %v", workers, seeded, seededCalls, want)
		}
	}
}
