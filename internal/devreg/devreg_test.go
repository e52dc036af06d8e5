package devreg

import (
	"testing"

	"accqoc"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

func fastBase() accqoc.Options {
	return accqoc.Options{
		Device: topology.Linear(3),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := New(Config{Base: fastBase()}, Profile{Name: "lin3", Device: topology.Linear(3)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFingerprintSensitivity(t *testing.T) {
	p := Profile{Name: "a", Device: topology.Linear(3)}
	base := p.Fingerprint()
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	// The registry name is routing, not physics: renaming must not change
	// the fingerprint.
	renamed := Profile{Name: "b", Device: topology.Linear(3)}
	if renamed.Fingerprint() != base {
		t.Fatal("fingerprint depends on the registry name")
	}
	// A different topology, a drifted calibration, and a drifted
	// Hamiltonian must each change it.
	if (Profile{Name: "a", Device: topology.Linear(4)}).Fingerprint() == base {
		t.Fatal("fingerprint blind to topology")
	}
	cal := Profile{Name: "a", Device: topology.Linear(3).WithCalibration(topology.MelbourneCalibration().Drift(2))}
	if cal.Fingerprint() == base {
		t.Fatal("fingerprint blind to calibration drift")
	}
	ham := Profile{Name: "a", Device: topology.Linear(3), Ham: hamiltonian.Config{}.Drift(2)}
	if ham.Fingerprint() == base {
		t.Fatal("fingerprint blind to Hamiltonian drift")
	}
	// Zero-value and explicit-default Hamiltonians are the same physics.
	expl := Profile{Name: "a", Device: topology.Linear(3), Ham: hamiltonian.Config{}.Normalize()}
	if expl.Fingerprint() != base {
		t.Fatal("zero-value and normalized default Hamiltonians fingerprint differently")
	}
}

func TestRegisterAcquireRelease(t *testing.T) {
	r := newTestRegistry(t)
	if r.DefaultName() != "lin3" {
		t.Fatalf("default name %q", r.DefaultName())
	}
	if err := r.Register(Profile{Name: "lin3", Device: topology.Linear(3)}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(Profile{Name: "lin5", Device: topology.Linear(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("nope"); err == nil {
		t.Fatal("unknown device acquired")
	}
	ns, err := r.Acquire("") // default
	if err != nil {
		t.Fatal(err)
	}
	if ns.DeviceName != "lin3" || ns.Epoch != 0 {
		t.Fatalf("default namespace %s@%d", ns.DeviceName, ns.Epoch)
	}
	if ns.Refs() != 1 {
		t.Fatalf("refs %d after acquire", ns.Refs())
	}
	ns.Release()
	if ns.Refs() != 0 {
		t.Fatalf("refs %d after release", ns.Refs())
	}
	st := r.Status()
	if len(st) != 2 || st[0].Name != "lin3" || st[1].Name != "lin5" {
		t.Fatalf("status %+v", st)
	}
	if st[0].Fingerprint == st[1].Fingerprint {
		t.Fatal("different topologies share a fingerprint")
	}
}

// trainInto trains every group of a program into the namespace's store,
// as the serving path would.
func trainInto(t *testing.T, ns *Namespace, src string) []string {
	t.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := ns.Comp.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	uniq, err := grouping.Deduplicate(prep.Grouping.Groups)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, u := range uniq {
		e, terr := precompile.TrainGroup(u, ns.Comp.Options().Precompile, nil)
		if terr != nil {
			t.Fatal(terr)
		}
		ns.Store.Put(e)
		keys = append(keys, u.Key)
	}
	return keys
}

const twoRxProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.5) q[0];\nrx(1.3) q[1];\n"

func TestCalibrateOpensEpochWithPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	r := newTestRegistry(t)
	ns, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	keys := trainInto(t, ns, twoRxProgram)
	if len(keys) != 2 {
		t.Fatalf("want 2 trained groups, got %d", len(keys))
	}
	// Make keys[1] the hotter entry so the plan must lead with it.
	for i := 0; i < 3; i++ {
		if _, ok := ns.Store.Get(keys[1]); !ok {
			t.Fatal("trained key missing")
		}
	}
	ns.Release()

	if _, err := r.Calibrate("", CalibrationUpdate{}); err == nil {
		t.Fatal("empty calibration update accepted")
	}
	roll, err := r.Calibrate("", CalibrationUpdate{DriftPct: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer roll.Finish()
	if roll.Epoch != 1 || roll.Old != ns || roll.New == roll.Old {
		t.Fatalf("roll %+v", roll)
	}
	if len(roll.Plan) != 2 {
		t.Fatalf("plan has %d items, want 2", len(roll.Plan))
	}
	if roll.Plan[0].Key != keys[1] {
		t.Fatalf("plan not most-requested-first: got %q first, want %q", roll.Plan[0].Key, keys[1])
	}
	for _, it := range roll.Plan {
		if it.Old == nil || it.Old.Pulse == nil || it.Unitary == nil {
			t.Fatalf("plan item incomplete: %+v", it)
		}
	}
	// The new epoch's physics drifted; its fingerprint must differ.
	if roll.New.Profile.Fingerprint() == roll.Old.Profile.Fingerprint() {
		t.Fatal("calibration drift did not change the fingerprint")
	}
	// The new namespace is current; its store is empty and its seed index
	// chains to the old epoch's.
	cur, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur != roll.New || cur.Epoch != 1 {
		t.Fatalf("current is %s@%d, want the rolled namespace", cur.DeviceName, cur.Epoch)
	}
	if cur.Store.Len() != 0 {
		t.Fatalf("new epoch store has %d entries, want 0", cur.Store.Len())
	}
	if cur.Seeds.Parent() != roll.Old.Seeds {
		t.Fatal("new epoch's seed index not parented on the old epoch's")
	}
	st := r.Status()
	if !st[0].Draining || st[0].Epoch != 1 || !st[0].Recompile.Active || st[0].Recompile.Planned != 2 {
		t.Fatalf("status during roll: %+v", st[0])
	}
}

func TestRetireOnDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	r := newTestRegistry(t)
	old, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	trainInto(t, old, twoRxProgram)

	roll, err := r.Calibrate("", CalibrationUpdate{DriftPct: -1.5})
	if err != nil {
		t.Fatal(err)
	}
	// The roll and the in-flight request each hold a reference; finishing
	// the roll alone must not retire the old epoch.
	roll.Finish()
	if st := r.Status(); !st[0].Draining {
		t.Fatal("old epoch retired while a request still holds it")
	}
	cur, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Seeds.Parent() == nil {
		t.Fatal("cross-epoch seed link missing while old epoch drains")
	}
	// Last in-flight request drains: the old epoch retires and the
	// cross-epoch seed link is cut.
	old.Release()
	if st := r.Status(); st[0].Draining {
		t.Fatal("old epoch still draining after last reference released")
	}
	if cur.Seeds.Parent() != nil {
		t.Fatal("cross-epoch seed link not cut at retirement")
	}
}

func TestCalibrateExplicitParams(t *testing.T) {
	r := newTestRegistry(t)
	ns, _ := r.Acquire("")
	ns.Release()
	newCal := topology.MelbourneCalibration()
	newCal.CXLatencyNs = 500
	newHam := hamiltonian.Config{MaxAmp: 0.07, Coupling: 0.003}
	roll, err := r.Calibrate("", CalibrationUpdate{Calibration: &newCal, Hamiltonian: &newHam})
	if err != nil {
		t.Fatal(err)
	}
	defer roll.Finish()
	got := roll.New.Profile
	if got.Device.Calibration.CXLatencyNs != 500 {
		t.Fatalf("calibration not applied: %+v", got.Device.Calibration)
	}
	if got.Ham.MaxAmp != 0.07 || got.Ham.Coupling != 0.003 {
		t.Fatalf("hamiltonian not applied: %+v", got.Ham)
	}
	// The compiler the namespace serves with must carry the new physics.
	if roll.New.Comp.Options().Device.Calibration.CXLatencyNs != 500 {
		t.Fatal("namespace compiler still carries the old calibration")
	}
	if roll.New.Comp.Options().Precompile.Ham.MaxAmp != 0.07 {
		t.Fatal("namespace compiler still carries the old Hamiltonian")
	}
}

// TestCalibrateRejectsInvalidUpdates pins the guard against partial JSON
// bodies: an explicit Calibration replaces the whole struct, so
// unspecified fields arrive zeroed and must be rejected, not served.
func TestCalibrateRejectsInvalidUpdates(t *testing.T) {
	r := newTestRegistry(t)
	partial := topology.Calibration{CXLatencyNs: 120} // everything else zero
	if _, err := r.Calibrate("", CalibrationUpdate{Calibration: &partial}); err == nil {
		t.Fatal("zeroed calibration accepted (free gates, T1=0)")
	}
	negHam := hamiltonian.Config{MaxAmp: -0.1}
	if _, err := r.Calibrate("", CalibrationUpdate{Hamiltonian: &negHam}); err == nil {
		t.Fatal("negative Hamiltonian accepted")
	}
	// A rejected update must not advance the epoch.
	ns, _ := r.Acquire("")
	defer ns.Release()
	if ns.Epoch != 0 {
		t.Fatalf("rejected update advanced epoch to %d", ns.Epoch)
	}
	// Apply round-trips a valid absolute update (the boot-time
	// -calibration-file path).
	p, err := CalibrationUpdate{DriftPct: 2}.Apply(ns.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() == ns.Profile.Fingerprint() {
		t.Fatal("Apply produced identical physics for a nonzero drift")
	}
}

// TestRollSuperseded pins the abandon signal: once a newer calibration
// lands, the older roll reports superseded and its Note calls stop
// mutating the device's roll status.
func TestRollSuperseded(t *testing.T) {
	r := newTestRegistry(t)
	roll1, err := r.Calibrate("", CalibrationUpdate{DriftPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	if roll1.Superseded() {
		t.Fatal("fresh roll reports superseded")
	}
	roll2, err := r.Calibrate("", CalibrationUpdate{DriftPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer roll2.Finish()
	if !roll1.Superseded() {
		t.Fatal("older roll does not report superseded")
	}
	before := roll2.Status()
	roll1.Note(false, false, true, 100)
	if after := roll2.Status(); after != before {
		t.Fatalf("superseded roll mutated the live status: %+v → %+v", before, after)
	}
	roll1.Finish()
}

// TestDeviceLookupsShareOneRule: every per-device lookup routes "" to the
// default device and fails an unknown name with the same error text.
func TestDeviceLookupsShareOneRule(t *testing.T) {
	r := newTestRegistry(t)
	const want = `devreg: unknown device "nope"`
	lookups := map[string]func(string) error{
		"Current":        func(n string) error { _, err := r.Current(n); return err },
		"UsageLedger":    func(n string) error { _, err := r.UsageLedger(n); return err },
		"EvictionPolicy": func(n string) error { _, err := r.EvictionPolicy(n); return err },
		"Acquire": func(n string) error {
			ns, err := r.Acquire(n)
			ns.Release()
			return err
		},
	}
	for name, lookup := range lookups {
		if err := lookup("nope"); err == nil || err.Error() != want {
			t.Fatalf("%s(unknown) error %v, want %q", name, err, want)
		}
		if err := lookup(""); err != nil {
			t.Fatalf("%s(default): %v", name, err)
		}
	}
	if _, err := r.Calibrate("nope", CalibrationUpdate{DriftPct: 1}); err == nil || err.Error() != want {
		t.Fatalf("Calibrate(unknown) error %v, want %q", err, want)
	}
	roll, err := r.Calibrate("", CalibrationUpdate{DriftPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer roll.Finish()
	if roll.Device != "lin3" || roll.Epoch != 1 {
		t.Fatalf("default calibration rolled %q to epoch %d, want lin3 to 1", roll.Device, roll.Epoch)
	}
}
