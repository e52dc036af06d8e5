// Package crosstalk quantifies the crosstalk exposure of a mapped circuit
// and models the error-rate inflation that nearby concurrent CX gates cause
// (the paper's Figure 5 and §IV-A / §VI-C).
//
// The metric follows Murali et al. (adopted by the paper): the total
// crosstalk effect of a program is the number of occurrences of "close"
// CNOT pairs summed over circuit layers, where two concurrent CX gates are
// close when their coupling edges are within distance ≤ 1 on the device.
package crosstalk

import (
	"math"
	"math/rand"

	"accqoc/internal/circuit"
	"accqoc/internal/topology"
)

// CloseDistance is the edge-to-edge coupling distance at or below which two
// concurrent CX gates are counted as a crosstalking pair.
const CloseDistance = 1

// InflationFactor is the average error-rate inflation a CX suffers from a
// nearby concurrent CX. The paper measures "average 20% higher error rate"
// on six Melbourne pairs (Fig. 5).
const InflationFactor = 1.20

// Metric counts close concurrent CX pairs per layer and returns the total.
// Gates on physical qubits: the circuit must already be mapped to the
// device. Single-qubit gates are ignored.
func Metric(c *circuit.Circuit, dev *topology.Device) int {
	dag := circuit.BuildDAG(c)
	total := 0
	var edges []topology.Edge
	for _, layer := range dag.Layers() {
		edges = layerCXEdges(edges[:0], c, layer)
		for i := 0; i < len(edges); i++ {
			for j := i + 1; j < len(edges); j++ {
				d := dev.EdgeDistance(edges[i], edges[j])
				if d >= 0 && d <= CloseDistance {
					total++
				}
			}
		}
	}
	return total
}

// PerLayer returns the close-pair count of each ASAP layer (for plots).
func PerLayer(c *circuit.Circuit, dev *topology.Device) []int {
	dag := circuit.BuildDAG(c)
	layers := dag.Layers()
	out := make([]int, len(layers))
	var edges []topology.Edge
	for l, layer := range layers {
		edges = layerCXEdges(edges[:0], c, layer)
		for i := 0; i < len(edges); i++ {
			for j := i + 1; j < len(edges); j++ {
				d := dev.EdgeDistance(edges[i], edges[j])
				if d >= 0 && d <= CloseDistance {
					out[l]++
				}
			}
		}
	}
	return out
}

// layerCXEdges appends the coupling of every two-qubit gate in layer to
// edges.
func layerCXEdges(edges []topology.Edge, c *circuit.Circuit, layer []int) []topology.Edge {
	for _, gi := range layer {
		g := c.Gates[gi]
		if len(g.Qubits) == 2 {
			edges = append(edges, topology.Edge{From: g.Qubits[0], To: g.Qubits[1]})
		}
	}
	return edges
}

// PairErrorModel generates the Figure 5 data: per-coupling baseline CX
// error rates and the inflated rates under a nearby concurrent CX. Baseline
// rates are drawn around the device's calibrated average with a
// deterministic per-edge spread, mimicking the pair-to-pair variation of
// real calibration data.
type PairErrorModel struct {
	dev *topology.Device
}

// NewPairErrorModel builds the error model for a device.
func NewPairErrorModel(dev *topology.Device) *PairErrorModel {
	return &PairErrorModel{dev: dev}
}

// BaselineError returns the isolated CX error rate for the undirected
// coupling (a, b). It is deterministic in (device, pair).
func (m *PairErrorModel) BaselineError(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	// Deterministic per-pair jitter in [0.6, 1.4) of the calibrated mean —
	// the spread visible in the paper's Fig. 5.
	rng := rand.New(rand.NewSource(int64(a*1009 + b*9176 + 12345)))
	jitter := 0.6 + 0.8*rng.Float64()
	return m.dev.Calibration.CXError * jitter
}

// CrosstalkError returns the CX error rate for pair (a, b) while another CX
// runs concurrently within CloseDistance.
func (m *PairErrorModel) CrosstalkError(a, b int) float64 {
	return m.BaselineError(a, b) * InflationFactor
}

// FigureRow is one x-position of the Figure 5 plot.
type FigureRow struct {
	Pair      [2]int
	Isolated  float64
	Crosstalk float64
}

// Figure5 returns rows for the requested number of couplings (the paper
// plots six Melbourne pairs). Pairs are taken from the device's undirected
// edge list in order.
func Figure5(dev *topology.Device, pairs int) []FigureRow {
	m := NewPairErrorModel(dev)
	edges := dev.UndirectedEdges()
	if pairs > len(edges) {
		pairs = len(edges)
	}
	rows := make([]FigureRow, 0, pairs)
	for _, e := range edges[:pairs] {
		rows = append(rows, FigureRow{
			Pair:      [2]int{e.From, e.To},
			Isolated:  m.BaselineError(e.From, e.To),
			Crosstalk: m.CrosstalkError(e.From, e.To),
		})
	}
	return rows
}

// ProgramFidelity estimates a mapped program's success probability from
// gate errors, crosstalk inflation and decoherence, following the §II-E
// error accounting: exponential decay over the critical-path latency plus
// per-gate error products.
//
// latencyNs is the program's overall latency (from the latency package).
func ProgramFidelity(c *circuit.Circuit, dev *topology.Device, latencyNs float64) float64 {
	cal := dev.Calibration
	m := NewPairErrorModel(dev)
	dag := circuit.BuildDAG(c)
	// base memoises BaselineError per undirected coupling for this call: a
	// mapped program runs hundreds of CX gates on a few dozen couplings,
	// and each BaselineError seeds a fresh RNG.
	base := map[[2]int]float64{}

	fidelity := 1.0
	var edges []topology.Edge
	for _, layer := range dag.Layers() {
		edges = layerCXEdges(edges[:0], c, layer)
		for _, gi := range layer {
			g := c.Gates[gi]
			if len(g.Qubits) != 2 {
				fidelity *= 1 - cal.Gate1QError
				continue
			}
			self := topology.Edge{From: g.Qubits[0], To: g.Qubits[1]}
			pair := [2]int{min(self.From, self.To), max(self.From, self.To)}
			err, ok := base[pair]
			if !ok {
				err = m.BaselineError(self.From, self.To)
				base[pair] = err
			}
			for _, other := range edges {
				if other == self {
					continue
				}
				d := dev.EdgeDistance(self, other)
				if d >= 0 && d <= CloseDistance {
					err *= InflationFactor // CrosstalkError's product
					break
				}
			}
			fidelity *= 1 - err
		}
	}
	// Coherence-limited decay over the run, using T1 as in §II-E:
	// error = 1 − e^{−t/T1}.
	decay := 1.0
	if cal.T1ns > 0 {
		decay = math.Exp(-latencyNs / cal.T1ns)
	}
	return fidelity * decay
}
