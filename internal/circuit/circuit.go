// Package circuit provides the shared intermediate representation of the
// AccQOC pipeline: a quantum circuit as an ordered gate list, its DAG of
// data dependencies per qubit wire, ASAP layering, instruction-mix
// statistics, and exact unitary construction for small circuits.
package circuit

import (
	"fmt"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

// Circuit is an ordered list of gates over NumQubits wires. The gate order
// is a valid topological order of the dependency DAG by construction.
type Circuit struct {
	NumQubits int
	Gates     []gate.Instance
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic(fmt.Sprintf("circuit: negative qubit count %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append validates and adds a gate to the circuit.
func (c *Circuit) Append(n gate.Name, qubits []int, params ...float64) error {
	g, err := gate.NewInstance(n, qubits, params)
	if err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits)
		}
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// MustAppend is Append that panics on error, for hand-built circuits.
func (c *Circuit) MustAppend(n gate.Name, qubits []int, params ...float64) {
	if err := c.Append(n, qubits, params...); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]gate.Instance, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = gate.Instance{
			Name:   g.Name,
			Qubits: append([]int(nil), g.Qubits...),
			Params: append([]float64(nil), g.Params...),
		}
	}
	return out
}

// GateCount returns the number of gates.
func (c *Circuit) GateCount() int { return len(c.Gates) }

// InstructionMix counts gates by name — the statistic of the paper's
// Table II.
func (c *Circuit) InstructionMix() map[gate.Name]int {
	mix := make(map[gate.Name]int)
	for _, g := range c.Gates {
		mix[g.Name]++
	}
	return mix
}

// DecomposeCCX returns a copy of the circuit with every Toffoli expanded
// into the standard 15-gate sequence (paper Fig. 2).
func (c *Circuit) DecomposeCCX() *Circuit {
	out := New(c.NumQubits)
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, gate.DecomposeCCX(g)...)
	}
	return out
}

// DAG is the data-dependency graph of a circuit: node i is gate i, with an
// edge i→j when gate j consumes a qubit last written by gate i.
type DAG struct {
	Circuit *Circuit
	Preds   [][]int // Preds[i]: immediate predecessors of gate i (sorted)
	Succs   [][]int // Succs[i]: immediate successors of gate i (sorted)
	Depth   []int   // ASAP layer of gate i, 0-based

	layers [][]int // gate indices by depth, built with the DAG
}

// BuildDAG constructs the dependency DAG and ASAP depths in one pass over
// the gate list (which is already topologically ordered), then groups the
// gates into ASAP layers.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circuit: c,
		Preds:   make([][]int, n),
		Succs:   make([][]int, n),
		Depth:   make([]int, n),
	}
	last := make([]int, c.NumQubits) // last gate index touching each qubit
	for i := range last {
		last[i] = -1
	}
	// Every gate's predecessors live in one backing array: a gate has at
	// most one per wire (three for CCX), kept sorted and unique by
	// insertion.
	refs := 0
	for _, g := range c.Gates {
		refs += len(g.Qubits)
	}
	all := make([]int, 0, refs)
	for i, g := range c.Gates {
		start := len(all)
		depth := 0
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 {
				all = insertSorted(all, start, p)
				depth = max(depth, d.Depth[p]+1)
			}
			last[q] = i
		}
		d.Depth[i] = depth
		d.Preds[i] = all[start:len(all):len(all)]
	}
	// Successor lists share a second array, each sized to its count first
	// so that filling them in gate order never reallocates.
	counts := make([]int, n)
	for _, p := range all {
		counts[p]++
	}
	succs := make([]int, len(all))
	for p, k := range counts {
		if k > 0 {
			d.Succs[p], succs = succs[:0:k], succs[k:]
		}
	}
	for i, preds := range d.Preds {
		for _, p := range preds {
			d.Succs[p] = append(d.Succs[p], i)
		}
	}
	// The layers share a third array, each sized to its count first.
	d.layers = make([][]int, d.NumLayers())
	sizes := make([]int, len(d.layers))
	for _, dep := range d.Depth {
		sizes[dep]++
	}
	layered := make([]int, n)
	for l, k := range sizes {
		d.layers[l], layered = layered[:0:k], layered[k:]
	}
	for i, dep := range d.Depth {
		d.layers[dep] = append(d.layers[dep], i)
	}
	return d
}

// insertSorted inserts p into the sorted, duplicate-free tail s[from:]
// unless it is there already.
func insertSorted(s []int, from, p int) []int {
	j := len(s)
	for j > from && s[j-1] > p {
		j--
	}
	if j > from && s[j-1] == p {
		return s
	}
	s = append(s, 0)
	copy(s[j+1:], s[j:])
	s[j] = p
	return s
}

// NumLayers returns the circuit depth (number of ASAP layers).
func (d *DAG) NumLayers() int {
	max := -1
	for _, dep := range d.Depth {
		if dep > max {
			max = dep
		}
	}
	return max + 1
}

// Layers groups gate indices by ASAP depth. Layer l contains all gates at
// depth l, in program order. BuildDAG derives them once; every caller
// shares them and must not modify them.
func (d *DAG) Layers() [][]int { return d.layers }

// Unitary computes the exact 2^n × 2^n unitary implemented by the circuit.
// Intended for small circuits (groups); it errors above maxQubits (10) to
// guard against accidental exponential blow-ups.
func (c *Circuit) Unitary() (*cmat.Matrix, error) {
	const maxQubits = 10
	if c.NumQubits > maxQubits {
		return nil, fmt.Errorf("circuit: Unitary limited to %d qubits, have %d", maxQubits, c.NumQubits)
	}
	dim := 1 << c.NumQubits
	acc := cmat.Identity(dim)
	for _, g := range c.Gates {
		u, err := g.Unitary()
		if err != nil {
			return nil, err
		}
		acc = cmat.Mul(gate.Embed(u, g.Qubits, c.NumQubits), acc)
	}
	return acc, nil
}

// TwoQubitGateCount counts gates touching two or more qubits.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits) >= 2 {
			n++
		}
	}
	return n
}
