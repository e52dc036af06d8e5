package precompile

import (
	"reflect"
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
)

func TestParallelBuildMatchesSerialCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 0.4, 0.9, 1.4, 2.1)
	cfg := fastCfg()

	serialLib, _, err := Build(uniq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelBuild(uniq, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Library.Entries) != len(serialLib.Entries) {
		t.Fatalf("parallel build trained %d entries, serial %d",
			len(par.Library.Entries), len(serialLib.Entries))
	}
	for key := range serialLib.Entries {
		if _, ok := par.Library.Entries[key]; !ok {
			t.Fatalf("parallel build missing key %.24s…", key)
		}
	}
	if par.Workers != 2 {
		t.Fatal("worker count not recorded")
	}
	if par.PartMakespan <= 0 || par.SerialWeight <= 0 {
		t.Fatalf("partition accounting missing: %+v", par)
	}
	if par.PartMakespan > par.SerialWeight {
		t.Fatal("makespan exceeds serial weight")
	}
}

func TestParallelBuildSingleWorkerAndSingleGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 1.0)
	par, err := ParallelBuild(uniq, fastCfg(), 0) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers != 1 || len(par.Library.Entries) != 1 {
		t.Fatalf("single-group build: %+v", par)
	}
}

func TestParallelBuildPulsesAreValid(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 0.6, 1.1)
	par, err := ParallelBuild(uniq, fastCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sys := hamiltonian.OneQubit(hamiltonian.Config{})
	for _, u := range uniq {
		e, ok := par.Library.Entries[u.Key]
		if !ok {
			t.Fatalf("entry missing for %.24s…", u.Key)
		}
		target, err := u.Group.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		if inf := grape.VerifyPulse(sys, e.Pulse, CanonicalUnitary(target)); inf > 5e-3 {
			t.Fatalf("parallel-trained pulse infidelity %v", inf)
		}
	}
}

func TestParallelBuildMixedSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	groups := []*grouping.Group{
		{Qubits: []int{0}, Gates: []gate.Instance{gate.MustInstance(gate.RZ, []int{0}, 0.8)}},
		{Qubits: []int{0, 1}, Gates: []gate.Instance{gate.MustInstance(gate.CX, []int{0, 1})}},
	}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Grape = grape.Options{TargetInfidelity: 1e-2, MaxIterations: 400, Seed: 2}
	par, err := ParallelBuild(uniq, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Library.Entries) != 2 {
		t.Fatalf("mixed-size build trained %d of 2 (failed: %v)",
			len(par.Library.Entries), par.Stats.Failed)
	}
}

// TestParallelBuildReportsOnlyUsedWarmSources pins that ParallelBuild names
// a warm source only when its pulse seeded the training, as Build does:
// rz(3.0) hangs off rz(0.4) by an MST edge far above WarmThreshold, so
// only the latency hint transfers. On one worker the two builds must agree
// entry for entry and step for step.
func TestParallelBuildReportsOnlyUsedWarmSources(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq := uniq1q(t, 0.4, 3.0)
	lib, stats, err := Build(uniq, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelBuild(uniq, fastCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Stats.PerGroup, stats.PerGroup) {
		t.Fatalf("per-group stats differ:\nparallel %+v\nserial   %+v", par.Stats.PerGroup, stats.PerGroup)
	}
	for _, g := range stats.PerGroup {
		if g.WarmFrom != "" {
			t.Fatalf("group %.24s… names warm source %.24s… across an edge above WarmThreshold", g.Key, g.WarmFrom)
		}
	}
	if len(par.Library.Entries) != len(lib.Entries) {
		t.Fatalf("parallel build trained %d entries, serial %d", len(par.Library.Entries), len(lib.Entries))
	}
	for k, e := range lib.Entries {
		p := par.Library.Entries[k]
		if p == nil || p.Iterations != e.Iterations || p.LatencyNs != e.LatencyNs ||
			!reflect.DeepEqual(p.Pulse.Amps, e.Pulse.Amps) {
			t.Fatalf("entry %.24s… differs between the builds", k)
		}
	}
}
