package accqoc

// Cross-module integration tests: invariants that only hold if the whole
// pipeline — mapping, grouping, GRAPE, library, latency DP — composes
// correctly.

import (
	"math"
	"math/cmplx"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/latency"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// TestPipelinePulsesImplementTheirGroups verifies the deepest invariant:
// every pulse the compiler put in its library actually implements its
// group's unitary when propagated through the physical model.
func TestPipelinePulsesImplementTheirGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	comp := New(fastOptions(topology.Linear(3)))
	res, err := comp.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.UncoveredUnique == 0 {
		t.Fatal("expected dynamic training")
	}
	checked := 0
	for i, g := range res.Grouping.Groups {
		e, ok := comp.Library().Entries[res.Keys[i]]
		if !ok {
			continue // failed-to-train groups are priced gate-based
		}
		sys, err := hamiltonian.ForQubits(e.NumQubits, comp.Options().Precompile.Ham)
		if err != nil {
			t.Fatal(err)
		}
		u, err := g.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		p := precompile.OrientPulse(e.Pulse, res.Swapped[i])
		if inf := grape.VerifyPulse(sys, p, u); inf > 5e-2 {
			t.Errorf("group %d pulse infidelity %v against its own unitary", i, inf)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no groups verified")
	}
}

// TestQASMToPulsePipeline drives the pipeline from QASM text to a latency
// number, exercising parser → mapper → grouping → QOC end to end.
func TestQASMToPulsePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/8) q[1];
cx q[1],q[2];
measure q -> c;
`
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := New(fastOptions(topology.Linear(3)))
	res, err := comp.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallLatencyNs <= 0 || res.LatencyReduction <= 0 {
		t.Fatalf("pipeline produced no latency: %+v", res)
	}
}

// TestPreparePreservesSemanticsSmall checks that Prepare's full front end
// (CCX decomposition + mapping + swap lowering) preserves the program
// unitary up to the final layout permutation, on a device small enough to
// verify exactly.
func TestPreparePreservesSemanticsSmall(t *testing.T) {
	comp := New(fastOptions(topology.Linear(3)))
	prog := circuit.New(3)
	prog.MustAppend(gate.CCX, []int{0, 1, 2})
	prog.MustAppend(gate.H, []int{0})
	prog.MustAppend(gate.CX, []int{2, 0})
	prep, err := comp.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	ul, err := prog.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	um, err := prep.Physical.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	// Relabel by the final layout.
	n := prog.NumQubits
	dim := 1 << n
	pi := cmat.New(dim, dim)
	for logical := 0; logical < dim; logical++ {
		phys := 0
		for l := 0; l < n; l++ {
			bit := (logical >> (n - 1 - l)) & 1
			phys |= bit << (n - 1 - prep.MapResult.FinalLayout[l])
		}
		pi.Set(phys, logical, 1)
	}
	want := cmat.Mul(pi, ul)
	overlap := cmplx.Abs(cmat.Trace(cmat.Mul(cmat.Dagger(want), um))) / float64(dim)
	if math.Abs(overlap-1) > 1e-9 {
		t.Fatalf("Prepare changed semantics: overlap %v", overlap)
	}
}

// TestLatencyDPConsistency cross-checks Algorithm 3 on groups against the
// same DP on gates when every group holds exactly one gate.
func TestLatencyDPConsistency(t *testing.T) {
	comp := New(fastOptions(topology.Linear(3)))
	prog := smallProgram()
	prep, err := comp.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	cal := topology.MelbourneCalibration()
	// Price every group as the sum of its member gates (serial within a
	// group): the group DP must then lower-bound... precisely, equal the
	// gate DP only if groups serialize exactly the gate critical path.
	// We check the weaker invariant: group DP ≥ gate DP (grouping can only
	// lose intra-group parallelism, never gain beyond it).
	durations := make([]float64, len(prep.Grouping.Groups))
	for i, grp := range prep.Grouping.Groups {
		for _, g := range grp.Gates {
			durations[i] += gatepulse.GateLatency(g.Name, cal)
		}
	}
	_, groupLat, err := latency.Schedule(prep.Grouping, durations)
	if err != nil {
		t.Fatal(err)
	}
	gateLat := gatepulse.Overall(prep.Physical, cal)
	if groupLat < gateLat-1e-9 {
		t.Fatalf("group DP %v below gate DP %v — DAG coarsening broken", groupLat, gateLat)
	}
}

// TestWorkloadSuiteCompilesUnderAllPolicies runs Prepare (no training) for
// every policy over a named benchmark, checking policy invariants hold on
// real circuit structure.
func TestWorkloadSuiteCompilesUnderAllPolicies(t *testing.T) {
	prog := workload.QFT(5)
	for _, polName := range []string{"map2b2l", "map2b3l", "map2b4l", "swap2b2l", "swap2b3l", "swap2b4l"} {
		opts := fastOptions(topology.Melbourne())
		pol, err := grouping.PolicyByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		opts.Policy = pol
		comp := New(opts)
		prep, err := comp.Prepare(prog.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", polName, err)
		}
		if circuit.BuildDAG(prep.Physical).NumLayers() == 0 {
			t.Fatalf("%s: physical circuit has no layers", polName)
		}
		for _, g := range prep.Grouping.Groups {
			if len(g.Qubits) > pol.MaxQubits {
				t.Fatalf("%s: group wider than policy", polName)
			}
		}
		hasSwap := false
		for _, g := range prep.Physical.Gates {
			if g.Name == gate.Swap {
				hasSwap = true
			}
		}
		if pol.DecomposeSwap && hasSwap {
			t.Fatalf("%s: swap survived", polName)
		}
	}
}

// TestGateBasedAlwaysSlowOnCXChains pins the baseline model: QOC latency
// for a trained CX group must beat the calibrated 974.9 ns.
func TestGateBasedAlwaysSlowOnCXChains(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	comp := New(fastOptions(topology.Linear(2)))
	prog := circuit.New(2)
	prog.MustAppend(gate.CX, []int{0, 1})
	res, err := comp.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.GateBasedLatencyNs != 974.9 {
		t.Fatalf("baseline CX = %v, want 974.9", res.GateBasedLatencyNs)
	}
	if res.OverallLatencyNs >= 974.9 {
		t.Fatalf("QOC CX latency %v did not beat the calibrated gate", res.OverallLatencyNs)
	}
	// The model's ZZ speed limit bounds it from below.
	if res.OverallLatencyNs < 312 {
		t.Fatalf("QOC CX latency %v below the π/(4J) speed limit", res.OverallLatencyNs)
	}
}
