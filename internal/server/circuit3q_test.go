package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"accqoc/internal/grouping"
)

// threeQubitProgram: CX(0,1);CX(1,2) merges into one dim-8 group under a
// 3-qubit policy; the trailing H keeps a 1Q group in the mix so the
// per-size dispatch is exercised side by side.
const threeQubitProgram = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0],q[1];
cx q[1],q[2];
h q[0];
`

// newTest3QServer is newTestServer with a 3-qubit policy (no CLI name
// selects one; the Go API accepts any grouping.Policy) and the GRAPE
// budget loosened: a dim-8 group trains 40 segments over an 8×8
// propagator chain, so a tight 1e-2 target would dominate the test suite.
func newTest3QServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	opts := fastOpts()
	opts.Policy = grouping.Policy{Name: "map3b3l", MaxQubits: 3, MaxLayers: 3, DecomposeSwap: true}
	opts.Precompile.Grape.TargetInfidelity = 0.3
	opts.Precompile.Grape.MaxIterations = 200
	s := New(Config{Compile: opts, Workers: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestCircuit3QPolicyEndToEnd compiles a program whose CX pair merges into
// a single 3-qubit group through /v1/circuits/compile: the schedule must
// validate, carry a 3-qubit slot, and resolve every waveform reference —
// the Go API still serves dim-8 groups end to end.
func TestCircuit3QPolicyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a dim-8 pulse; skipped in -short")
	}
	_, ts := newTest3QServer(t)

	resp, code := postCircuit(t, ts.URL, CircuitRequest{
		CompileRequest:   CompileRequest{QASM: threeQubitProgram},
		IncludeWaveforms: true,
	})
	if code != http.StatusOK {
		t.Fatalf("3Q circuit compile status %d", code)
	}
	checkWireSchedule(t, resp)
	if resp.Compile.FailedGroups != 0 {
		t.Fatalf("3Q training failed: %+v", resp.Compile)
	}

	var got3q bool
	for _, sp := range resp.Schedule {
		if len(sp.Qubits) == 3 {
			got3q = true
		}
		if sp.Waveform == "" {
			t.Fatalf("slot missing waveform ref: %+v", sp)
		}
		p, ok := resp.Waveforms[sp.Waveform]
		if !ok {
			t.Fatalf("waveform %s referenced but not inlined", sp.Waveform)
		}
		if p.Duration() != sp.DurationNs {
			t.Fatalf("waveform duration %v disagrees with slot %v", p.Duration(), sp.DurationNs)
		}
		if p.Channels() != 2*len(sp.Qubits) {
			t.Fatalf("slot on %d qubits has %d channels, want %d",
				len(sp.Qubits), p.Channels(), 2*len(sp.Qubits))
		}
	}
	if !got3q {
		t.Fatal("no 3-qubit slot in the schedule: the CX pair did not merge under map3b3l")
	}

	// The warm path serves the same dim-8 group from the library.
	warm, code := postCircuit(t, ts.URL, CircuitRequest{
		CompileRequest: CompileRequest{QASM: threeQubitProgram},
	})
	if code != http.StatusOK {
		t.Fatalf("warm 3Q status %d", code)
	}
	if !warm.Compile.WarmServed || warm.Compile.CoverageRate != 1 {
		t.Fatalf("3Q groups not served warm on repeat: %+v", warm.Compile)
	}
	if warm.MakespanNs != resp.MakespanNs {
		t.Fatalf("warm makespan %v differs from cold %v", warm.MakespanNs, resp.MakespanNs)
	}
}
