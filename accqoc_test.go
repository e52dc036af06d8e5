package accqoc

import (
	"math"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/mapping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/similarity"
	"accqoc/internal/topology"
)

// fastOptions keeps GRAPE cheap for integration tests: loose fidelity,
// tight iteration caps, narrow search brackets.
func fastOptions(dev *topology.Device) Options {
	return Options{
		Device: dev,
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}
}

// smallProgram: a 3-qubit mix that maps onto a linear device with a couple
// of two-qubit groups.
func smallProgram() *circuit.Circuit {
	c := circuit.New(3)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.T, []int{1})
	c.MustAppend(gate.CX, []int{1, 2})
	c.MustAppend(gate.H, []int{2})
	return c
}

func TestNewDefaults(t *testing.T) {
	c := New(Options{})
	if c.Options().Device.Name != "ibmq-melbourne" {
		t.Fatal("default device should be Melbourne")
	}
	if c.Options().Policy.Name != "map2b4l" {
		t.Fatal("default policy should be map2b4l (the paper's best)")
	}
	if !c.Options().Mapping.CrosstalkAware {
		t.Fatal("crosstalk-aware mapping should default on")
	}
}

func TestDisableCrosstalkAware(t *testing.T) {
	c := New(Options{DisableCrosstalkAware: true})
	if c.Options().Mapping.CrosstalkAware {
		t.Fatal("DisableCrosstalkAware must switch crosstalk-aware mapping off")
	}
	// A custom weight alone must not flip the opt-out back on (the old
	// behavior overloaded CrosstalkWeight == 0 as the enable condition).
	c = New(Options{DisableCrosstalkAware: true, Mapping: mapping.Options{CrosstalkWeight: 1.5}})
	if c.Options().Mapping.CrosstalkAware {
		t.Fatal("custom CrosstalkWeight must not override the opt-out")
	}
	// And with a custom weight but no opt-out, the default still applies.
	c = New(Options{Mapping: mapping.Options{CrosstalkWeight: 1.5}})
	if !c.Options().Mapping.CrosstalkAware {
		t.Fatal("custom CrosstalkWeight must keep the crosstalk-aware default")
	}
}

func TestPrepare(t *testing.T) {
	c := New(fastOptions(topology.Linear(3)))
	prep, err := c.Prepare(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if prep.Physical.GateCount() == 0 {
		t.Fatal("empty physical circuit")
	}
	if len(prep.Grouping.Groups) == 0 {
		t.Fatal("no groups")
	}
	for _, g := range prep.Grouping.Groups {
		if len(g.Qubits) > 2 {
			t.Fatal("policy violated: group wider than 2 qubits")
		}
	}
	// map2b4l decomposes swaps: none may survive.
	for _, g := range prep.Physical.Gates {
		if g.Name == gate.Swap {
			t.Fatal("swap survived map-policy lowering")
		}
	}
}

func TestPrepareCCXDecomposition(t *testing.T) {
	c := New(fastOptions(topology.Linear(3)))
	prog := circuit.New(3)
	prog.MustAppend(gate.CCX, []int{0, 1, 2})
	prep, err := c.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range prep.Physical.Gates {
		if g.Name == gate.CCX {
			t.Fatal("CCX survived preparation")
		}
	}
}

func TestCompileEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	c := New(fastOptions(topology.Linear(3)))
	res, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGroups == 0 {
		t.Fatal("no groups compiled")
	}
	if res.OverallLatencyNs <= 0 {
		t.Fatal("overall latency not computed")
	}
	if res.GateBasedLatencyNs <= 0 {
		t.Fatal("baseline latency not computed")
	}
	if res.LatencyReduction <= 1 {
		t.Errorf("QOC latency %.0f ns did not beat gate-based %.0f ns",
			res.OverallLatencyNs, res.GateBasedLatencyNs)
	}
	if res.EstimatedFidelity <= 0 || res.EstimatedFidelity > 1 {
		t.Fatalf("fidelity estimate %v out of range", res.EstimatedFidelity)
	}
	if res.TrainingIterations == 0 {
		t.Fatal("cold compile should have trained groups")
	}
	t.Logf("latency: QOC %.0f ns vs gate-based %.0f ns (%.2fx), coverage %.0f%%, %d iters",
		res.OverallLatencyNs, res.GateBasedLatencyNs, res.LatencyReduction,
		100*res.CoverageRate, res.TrainingIterations)
}

func TestLibraryGrowsAcrossCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	c := New(fastOptions(topology.Linear(3)))
	first, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if first.CoverageRate == 1 {
		t.Fatal("first compile should start uncovered")
	}
	second, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if second.CoverageRate != 1 {
		t.Fatalf("second compile coverage = %v, want 1 (library reuse)", second.CoverageRate)
	}
	if second.TrainingIterations != 0 {
		t.Fatal("covered compile must not train")
	}
	if second.OverallLatencyNs != first.OverallLatencyNs {
		t.Fatalf("latency changed across identical compiles: %v vs %v",
			first.OverallLatencyNs, second.OverallLatencyNs)
	}
}

func TestProfileThenCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	c := New(fastOptions(topology.Linear(3)))
	prof, err := c.Profile([]*circuit.Circuit{smallProgram()})
	if err != nil {
		t.Fatal(err)
	}
	if prof.UniqueGroups == 0 || prof.Stats.TotalIterations == 0 {
		t.Fatalf("profile did nothing: %+v", prof)
	}
	res, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.CoverageRate != 1 {
		t.Fatalf("profiled program coverage = %v, want 1", res.CoverageRate)
	}
}

func TestCompileBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	c := New(fastOptions(topology.Linear(3)))
	prog := circuit.New(2)
	prog.MustAppend(gate.H, []int{0})
	prog.MustAppend(gate.CX, []int{0, 1})
	res, err := c.CompileBruteForce(prog, BruteForceOptions{MaxQubits: 2, MaxLayers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueGroups == 0 || res.OverallLatencyNs <= 0 {
		t.Fatalf("brute force result: %+v", res)
	}
	if res.LatencyReduction <= 1 {
		t.Errorf("brute force should beat gate-based: %+v", res)
	}
}

func TestCompileEmptyProgram(t *testing.T) {
	c := New(fastOptions(topology.Linear(3)))
	res, err := c.Compile(circuit.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallLatencyNs != 0 || res.CoverageRate != 1 {
		t.Fatalf("empty program: %+v", res)
	}
}

func TestSetLibraryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	c1 := New(fastOptions(topology.Linear(3)))
	if _, err := c1.Compile(smallProgram()); err != nil {
		t.Fatal(err)
	}
	c2 := New(fastOptions(topology.Linear(3)))
	c2.SetLibrary(c1.Library())
	res, err := c2.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.CoverageRate != 1 {
		t.Fatal("transplanted library should fully cover")
	}
}

// TestLibrarySeedL1AdmitsSimilar2QNeighbor is the regression for the
// fixed library-seed threshold: it used a flat 0.5 cut-off for every
// similarity function, but entry-wise L1 distances between 4×4 unitaries
// live on a ~d·√d scale (WarmThreshold(L1, 4) = 2.0), so genuinely
// similar 2Q neighbors were silently rejected. The test builds a library
// entry, queries with a unitary whose L1 distance is provably above the
// old cut-off and below the correct one, and requires the seed to be
// admitted.
func TestLibrarySeedL1AdmitsSimilar2QNeighbor(t *testing.T) {
	opts := fastOptions(topology.Linear(3))
	opts.Precompile.Similarity = similarity.L1
	c := New(opts)

	sys, err := hamiltonian.ForQubits(2, opts.Precompile.Ham)
	if err != nil {
		t.Fatal(err)
	}
	// A handmade (untrained) pulse is fine: the seed lookup only compares
	// the entry's achieved unitary with the query.
	p := pulse.New(sys.ControlNames, 16, 10)
	for ch := range p.Amps {
		for s := range p.Amps[ch] {
			p.Amps[ch][s] = 0.002 * float64((ch+1)*(s+1))
		}
	}
	lib := precompile.NewLibrary()
	lib.Entries["neighbor"] = &precompile.Entry{
		Key: "neighbor", NumQubits: 2, Pulse: p, LatencyNs: p.Duration(),
	}
	c.SetLibrary(lib)

	base := grape.Propagate(sys, p)
	// Search for a phase perturbation that lands strictly between the old
	// flat threshold and the dimension-correct one.
	oldThreshold := 0.5
	newThreshold := similarity.WarmThreshold(similarity.L1, sys.Dim)
	var query *cmat.Matrix
	var dist float64
	for theta := 0.05; theta < 3.2; theta += 0.05 {
		ph := complex(math.Cos(theta/2), math.Sin(theta/2))
		rot := cmat.FromRows([][]complex128{
			{1 / ph, 0, 0, 0},
			{0, 1 / ph, 0, 0},
			{0, 0, ph, 0},
			{0, 0, 0, ph},
		})
		q := cmat.Mul(base, rot)
		d, derr := similarity.Distance(similarity.L1, q, base)
		if derr != nil {
			t.Fatal(derr)
		}
		if d > oldThreshold+0.1 && d < newThreshold-0.1 {
			query, dist = q, d
			break
		}
	}
	if query == nil {
		t.Fatal("could not construct a query in the regression window")
	}

	store := compilerStore{c}
	seed, _, ok := store.Nearest(query, 2)
	if !ok {
		t.Fatalf("L1 neighbor at distance %.3f (old cut-off %.1f, correct threshold %.1f) rejected as seed",
			dist, oldThreshold, newThreshold)
	}
	if seed.LatencyNs != p.Duration() {
		t.Fatalf("seed hint %v, want entry latency %v", seed.LatencyNs, p.Duration())
	}

	// Sanity: a maximally dissimilar query is still rejected under the
	// correct threshold.
	var rows [][]complex128
	for i := 0; i < 4; i++ {
		row := make([]complex128, 4)
		row[3-i] = 1i
		rows = append(rows, row)
	}
	if _, _, ok := store.Nearest(cmat.FromRows(rows), 2); ok {
		t.Fatal("anti-diagonal unitary admitted as L1 seed")
	}
}

// TestCompileTrainingsCarryProvenance pins that Compile's trainings stamp
// their cost provenance and notify the observer exactly once per trained
// entry, like the serving path's: TrainWallNs is positive, and Seeded
// agrees with what the observer was told.
func TestCompileTrainingsCarryProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	opts := fastOptions(topology.Linear(3))
	calls, seededCalls := 0, 0
	opts.Precompile.Observer = func(_, _ int, _ float64, seeded bool) {
		calls++
		if seeded {
			seededCalls++
		}
	}
	c := New(opts)
	first := circuit.New(3)
	first.MustAppend(gate.RX, []int{0}, 0.5)
	first.MustAppend(gate.RY, []int{2}, 1.0)
	first.MustAppend(gate.CX, []int{0, 1})
	second := circuit.New(3)
	second.MustAppend(gate.RX, []int{0}, 0.6)
	second.MustAppend(gate.RY, []int{2}, 1.1)
	for _, prog := range []*circuit.Circuit{first, second} {
		if _, err := c.Compile(prog); err != nil {
			t.Fatal(err)
		}
	}
	entries := c.Library().Entries
	if calls != len(entries) {
		t.Fatalf("observer saw %d trainings for %d entries", calls, len(entries))
	}
	seeded := 0
	for k, e := range entries {
		if e.TrainWallNs <= 0 {
			t.Fatalf("entry %.24s… has no training wall time", k)
		}
		if e.Seeded {
			seeded++
		}
	}
	if seeded == 0 || seeded != seededCalls {
		t.Fatalf("%d entries marked seeded, observer saw %d seeded trainings", seeded, seededCalls)
	}
}
