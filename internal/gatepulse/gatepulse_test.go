package gatepulse

import (
	"math"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

func cal() topology.Calibration { return topology.MelbourneCalibration() }

func TestGateLatencyTable(t *testing.T) {
	c := cal()
	cases := map[gate.Name]float64{
		gate.RZ:   0,
		gate.T:    0,
		gate.U1:   0,
		gate.X:    100,
		gate.H:    100,
		gate.U2:   50,
		gate.U3:   100,
		gate.CX:   974.9,
		gate.Swap: 3 * 974.9,
	}
	for name, want := range cases {
		if got := GateLatency(name, c); math.Abs(got-want) > 1e-9 {
			t.Errorf("GateLatency(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestOverallSerialChain(t *testing.T) {
	c := circuit.New(2)
	c.MustAppend(gate.X, []int{0})
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.X, []int{1})
	got := Overall(c, cal())
	want := 100 + 974.9 + 100
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Overall = %v, want %v", got, want)
	}
}

func TestOverallParallelism(t *testing.T) {
	// Two X gates on different qubits run concurrently.
	c := circuit.New(2)
	c.MustAppend(gate.X, []int{0})
	c.MustAppend(gate.X, []int{1})
	if got := Overall(c, cal()); math.Abs(got-100) > 1e-9 {
		t.Fatalf("parallel Overall = %v, want 100", got)
	}
}

func TestFrameGatesAreFree(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 10; i++ {
		c.MustAppend(gate.RZ, []int{0}, 0.1)
	}
	if got := Overall(c, cal()); got != 0 {
		t.Fatalf("rz chain latency = %v, want 0", got)
	}
}

// driftedCal is a deliberately non-Melbourne calibration: frame changes
// cost real time, and the 1Q/CX latencies are swapped so any hidden
// assumption that "CX is the long gate" shows up immediately. Every
// pre-registry test pinned MelbourneCalibration(); with calibration
// epochs, GateLatency must be correct for arbitrary calibrations.
func driftedCal() topology.Calibration {
	return topology.Calibration{
		T1ns:            40000,
		T2ns:            35000,
		CXLatencyNs:     100,   // swapped with the 1q latency
		Gate1QLatencyNs: 974.9, // swapped with the CX latency
		FrameLatencyNs:  10,    // frame changes are no longer free
		CXError:         1e-2,
		Gate1QError:     2e-3,
	}
}

func TestGateLatencyNonMelbourneCalibrations(t *testing.T) {
	c := driftedCal()
	cases := map[gate.Name]float64{
		gate.RZ:   10, // frame gates inherit FrameLatencyNs, not zero
		gate.T:    10,
		gate.U1:   10,
		gate.Z:    10,
		gate.X:    974.9,
		gate.H:    974.9,
		gate.U2:   974.9 / 2, // still half a 1q pulse under any calibration
		gate.U3:   974.9,
		gate.CX:   100,
		gate.CZ:   100,
		gate.Swap: 300, // 3 CXs at the swapped latency
		gate.CCX:  6*100 + 2*974.9,
	}
	for name, want := range cases {
		if got := GateLatency(name, c); math.Abs(got-want) > 1e-9 {
			t.Errorf("GateLatency(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestOverallSerialUnderSwappedLatencies(t *testing.T) {
	c := driftedCal()
	// x(q0); cx(q0,q1); x(q1): the chain is serial through q0→q1.
	prog := circuit.New(2)
	prog.MustAppend(gate.X, []int{0})
	prog.MustAppend(gate.CX, []int{0, 1})
	prog.MustAppend(gate.X, []int{1})
	want := 974.9 + 100 + 974.9
	if got := Overall(prog, c); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Overall = %v, want %v", got, want)
	}
	// With swapped latencies, a 1q-dominated program is now slower than a
	// CX-dominated one of equal gate count — the inversion a frozen
	// Melbourne assumption would miss.
	oneQ := circuit.New(2)
	twoQ := circuit.New(2)
	for i := 0; i < 4; i++ {
		oneQ.MustAppend(gate.X, []int{0})
		twoQ.MustAppend(gate.CX, []int{0, 1})
	}
	if o, tw := Overall(oneQ, c), Overall(twoQ, c); o <= tw {
		t.Fatalf("swapped calibration: 1q chain %v not slower than CX chain %v", o, tw)
	}
}

func TestFrameGatesCostFrameLatency(t *testing.T) {
	c := driftedCal()
	prog := circuit.New(1)
	for i := 0; i < 10; i++ {
		prog.MustAppend(gate.RZ, []int{0}, 0.1)
	}
	if got, want := Overall(prog, c), 100.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("rz chain under nonzero frame latency = %v, want %v", got, want)
	}
	// And a zero-frame calibration (the Melbourne default) keeps them free.
	if got := Overall(prog, topology.MelbourneCalibration()); got != 0 {
		t.Fatalf("rz chain under zero frame latency = %v, want 0", got)
	}
}

func TestOverallScalesWithCalibrationDrift(t *testing.T) {
	base := topology.MelbourneCalibration()
	drifted := base.Drift(2)
	prog := circuit.New(2)
	prog.MustAppend(gate.X, []int{0})
	prog.MustAppend(gate.CX, []int{0, 1})
	want := 1.02 * Overall(prog, base)
	if got := Overall(prog, drifted); math.Abs(got-want) > 1e-6 {
		t.Fatalf("2%% drifted Overall = %v, want %v", got, want)
	}
}

func TestCXDominatedProgram(t *testing.T) {
	// The paper's observation: CX dominates gate-based latency.
	c := circuit.New(2)
	for i := 0; i < 5; i++ {
		c.MustAppend(gate.CX, []int{0, 1})
	}
	want := 5 * 974.9
	if got := Overall(c, cal()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("CX chain = %v, want %v", got, want)
	}
}
