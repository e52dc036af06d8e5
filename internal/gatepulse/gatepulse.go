// Package gatepulse is the gate-based compilation baseline (§II-C, Fig. 3):
// every gate maps to a calibrated pulse through a lookup table and the
// program's pulses concatenate along the dependency critical path. Frame
// changes (the u1/rz family) are free, pulse-backed single-qubit gates cost
// one calibrated drive, CX costs the calibrated cross-resonance time, and a
// swap lowers to three CXs.
package gatepulse

import (
	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/latency"
	"accqoc/internal/topology"
)

// frameGates are implemented as frame changes on IBM backends: zero pulse
// duration.
var frameGates = map[gate.Name]bool{
	gate.I: true, gate.Z: true, gate.S: true, gate.Sdg: true,
	gate.T: true, gate.Tdg: true, gate.RZ: true, gate.U1: true,
}

// GateLatency returns the pulse duration (ns) of one gate under the
// device calibration.
func GateLatency(name gate.Name, cal topology.Calibration) float64 {
	switch {
	case frameGates[name]:
		return cal.FrameLatencyNs
	case name == gate.CX || name == gate.CZ:
		return cal.CXLatencyNs
	case name == gate.Swap:
		return 3 * cal.CXLatencyNs
	case name == gate.U2:
		// One X90 pulse on IBM backends: half a generic 1q gate.
		return cal.Gate1QLatencyNs / 2
	case name == gate.CCX:
		// Not hardware-native; callers should decompose first. Priced as
		// its 15-gate expansion's critical path for robustness.
		return 6*cal.CXLatencyNs + 2*cal.Gate1QLatencyNs
	default:
		return cal.Gate1QLatencyNs
	}
}

// Overall returns the gate-based program latency: per-gate calibrated
// pulses concatenated along the dependency critical path (Algorithm 3 on
// the gate DAG).
func Overall(c *circuit.Circuit, cal topology.Calibration) float64 {
	return OverallDAG(circuit.BuildDAG(c), cal)
}

// OverallDAG is Overall over a circuit's already-built dependency DAG.
func OverallDAG(dag *circuit.DAG, cal topology.Calibration) float64 {
	gates := dag.Circuit.Gates
	return latency.OverallGates(dag, func(g int) float64 {
		return GateLatency(gates[g].Name, cal)
	})
}
