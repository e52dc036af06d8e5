// Package gate defines the quantum gate vocabulary used throughout the
// AccQOC pipeline: names, arities, parameter counts, exact unitary matrices
// and the standard Toffoli decomposition into hardware-basic gates.
//
// Conventions: qubit 0 is the most significant bit of a basis-state index,
// matching the Kronecker ordering |q0⟩ ⊗ |q1⟩ ⊗ …. For two-qubit gates the
// first operand is the control (where applicable).
package gate

import (
	"fmt"
	"math"
	"math/cmplx"

	"accqoc/internal/cmat"
)

// Name identifies a gate type. Names follow OpenQASM 2.0 / qelib1.inc.
type Name string

// The supported gate vocabulary.
const (
	I    Name = "id"
	X    Name = "x"
	Y    Name = "y"
	Z    Name = "z"
	H    Name = "h"
	S    Name = "s"
	Sdg  Name = "sdg"
	T    Name = "t"
	Tdg  Name = "tdg"
	RX   Name = "rx"
	RY   Name = "ry"
	RZ   Name = "rz"
	U1   Name = "u1"
	U2   Name = "u2"
	U3   Name = "u3"
	CX   Name = "cx"
	CZ   Name = "cz"
	Swap Name = "swap"
	CCX  Name = "ccx"
)

// Spec describes the static properties of a gate type.
type Spec struct {
	Qubits int // operand count
	Params int // parameter count
}

var specs = map[Name]Spec{
	I: {1, 0}, X: {1, 0}, Y: {1, 0}, Z: {1, 0}, H: {1, 0},
	S: {1, 0}, Sdg: {1, 0}, T: {1, 0}, Tdg: {1, 0},
	RX: {1, 1}, RY: {1, 1}, RZ: {1, 1},
	U1: {1, 1}, U2: {1, 2}, U3: {1, 3},
	CX: {2, 0}, CZ: {2, 0}, Swap: {2, 0},
	CCX: {3, 0},
}

// Lookup returns the Spec for a gate name and whether the name is known.
func Lookup(n Name) (Spec, bool) {
	s, ok := specs[n]
	return s, ok
}

// Known reports whether n is in the supported vocabulary.
func Known(n Name) bool {
	_, ok := specs[n]
	return ok
}

// Unitary returns the exact unitary matrix of the gate with the given
// parameters. The matrix is 2^q × 2^q where q is the gate's operand count.
// It returns an error for unknown names or wrong parameter counts.
func Unitary(n Name, params []float64) (*cmat.Matrix, error) {
	spec, ok := specs[n]
	if !ok {
		return nil, fmt.Errorf("gate: unknown gate %q", n)
	}
	if len(params) != spec.Params {
		return nil, fmt.Errorf("gate: %s takes %d parameter(s), got %d", n, spec.Params, len(params))
	}
	p := func(i int) float64 { return params[i] }
	switch n {
	case I:
		return cmat.Identity(2), nil
	case X:
		return cmat.FromRows([][]complex128{{0, 1}, {1, 0}}), nil
	case Y:
		return cmat.FromRows([][]complex128{{0, -1i}, {1i, 0}}), nil
	case Z:
		return cmat.FromRows([][]complex128{{1, 0}, {0, -1}}), nil
	case H:
		s := complex(1/math.Sqrt2, 0)
		return cmat.FromRows([][]complex128{{s, s}, {s, -s}}), nil
	case S:
		return cmat.FromRows([][]complex128{{1, 0}, {0, 1i}}), nil
	case Sdg:
		return cmat.FromRows([][]complex128{{1, 0}, {0, -1i}}), nil
	case T:
		return cmat.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}), nil
	case Tdg:
		return cmat.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, -math.Pi/4))}}), nil
	case RX:
		c, s := math.Cos(p(0)/2), math.Sin(p(0)/2)
		return cmat.FromRows([][]complex128{
			{complex(c, 0), complex(0, -s)},
			{complex(0, -s), complex(c, 0)},
		}), nil
	case RY:
		c, s := math.Cos(p(0)/2), math.Sin(p(0)/2)
		return cmat.FromRows([][]complex128{
			{complex(c, 0), complex(-s, 0)},
			{complex(s, 0), complex(c, 0)},
		}), nil
	case RZ:
		return cmat.FromRows([][]complex128{
			{cmplx.Exp(complex(0, -p(0)/2)), 0},
			{0, cmplx.Exp(complex(0, p(0)/2))},
		}), nil
	case U1:
		return cmat.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, p(0)))}}), nil
	case U2:
		return u3(math.Pi/2, p(0), p(1)), nil
	case U3:
		return u3(p(0), p(1), p(2)), nil
	case CX:
		return cmat.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
			{0, 0, 1, 0},
		}), nil
	case CZ:
		return cmat.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, -1},
		}), nil
	case Swap:
		return cmat.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 0, 1, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
		}), nil
	case CCX:
		m := cmat.Identity(8)
		// |110⟩ ↔ |111⟩ with qubit 0 as MSB: indices 6 and 7.
		m.Set(6, 6, 0)
		m.Set(7, 7, 0)
		m.Set(6, 7, 1)
		m.Set(7, 6, 1)
		return m, nil
	}
	return nil, fmt.Errorf("gate: unitary for %q not implemented", n)
}

// u3 is the IBM generic single-qubit rotation:
// U3(θ,φ,λ) = [[cos(θ/2), −e^{iλ}sin(θ/2)], [e^{iφ}sin(θ/2), e^{i(φ+λ)}cos(θ/2)]].
func u3(theta, phi, lambda float64) *cmat.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return cmat.FromRows([][]complex128{
		{c, -cmplx.Exp(complex(0, lambda)) * s},
		{cmplx.Exp(complex(0, phi)) * s, cmplx.Exp(complex(0, phi+lambda)) * c},
	})
}

// Instance is a gate applied to concrete qubits. It is the element type of
// circuits and groups across the pipeline.
type Instance struct {
	Name   Name
	Qubits []int
	Params []float64
}

// NewInstance validates operands against the gate's Spec and returns an
// Instance.
func NewInstance(n Name, qubits []int, params []float64) (Instance, error) {
	spec, ok := specs[n]
	if !ok {
		return Instance{}, fmt.Errorf("gate: unknown gate %q", n)
	}
	if len(qubits) != spec.Qubits {
		return Instance{}, fmt.Errorf("gate: %s takes %d qubit(s), got %d", n, spec.Qubits, len(qubits))
	}
	if len(params) != spec.Params {
		return Instance{}, fmt.Errorf("gate: %s takes %d parameter(s), got %d", n, spec.Params, len(params))
	}
	// At most three operands: a nested scan finds a repeat without a set.
	for i, q := range qubits {
		if q < 0 {
			return Instance{}, fmt.Errorf("gate: negative qubit %d", q)
		}
		for _, p := range qubits[:i] {
			if p == q {
				return Instance{}, fmt.Errorf("gate: repeated qubit %d in %s", q, n)
			}
		}
	}
	return Instance{Name: n, Qubits: append([]int(nil), qubits...), Params: append([]float64(nil), params...)}, nil
}

// MustInstance is NewInstance that panics on error; for tests and
// hand-written circuit literals.
func MustInstance(n Name, qubits []int, params ...float64) Instance {
	g, err := NewInstance(n, qubits, params)
	if err != nil {
		panic(err)
	}
	return g
}

// Unitary returns the instance's gate matrix (local, 2^q × 2^q).
func (g Instance) Unitary() (*cmat.Matrix, error) {
	return Unitary(g.Name, g.Params)
}

// String renders the instance in QASM-like syntax: "cx q[0],q[1]".
func (g Instance) String() string {
	s := string(g.Name)
	if len(g.Params) > 0 {
		s += "("
		for i, p := range g.Params {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%g", p)
		}
		s += ")"
	}
	s += " "
	for i, q := range g.Qubits {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("q[%d]", q)
	}
	return s
}

// DecomposeCCX expands a Toffoli gate on (a, b, c) into the standard
// 15-gate basic sequence (2 H, 6 CX, 4 T, 3 Tdg) — the decomposition the
// paper's Figure 2 refers to. Non-CCX instances are returned unchanged.
func DecomposeCCX(g Instance) []Instance {
	if g.Name != CCX {
		return []Instance{g}
	}
	a, b, c := g.Qubits[0], g.Qubits[1], g.Qubits[2]
	seq := []Instance{
		MustInstance(H, []int{c}),
		MustInstance(CX, []int{b, c}),
		MustInstance(Tdg, []int{c}),
		MustInstance(CX, []int{a, c}),
		MustInstance(T, []int{c}),
		MustInstance(CX, []int{b, c}),
		MustInstance(Tdg, []int{c}),
		MustInstance(CX, []int{a, c}),
		MustInstance(T, []int{b}),
		MustInstance(T, []int{c}),
		MustInstance(H, []int{c}),
		MustInstance(CX, []int{a, b}),
		MustInstance(T, []int{a}),
		MustInstance(Tdg, []int{b}),
		MustInstance(CX, []int{a, b}),
	}
	return seq
}

// Embed lifts a k-qubit gate matrix to an n-qubit unitary acting on the
// given qubit positions (identity elsewhere). qubits[0] is the most
// significant local bit of the small matrix.
func Embed(small *cmat.Matrix, qubits []int, n int) *cmat.Matrix {
	out := cmat.New(1<<n, 1<<n)
	EmbedInto(out, small, qubits, n)
	return out
}

// EmbedInto is Embed writing into dst, a 2^n × 2^n matrix whose previous
// contents are overwritten.
func EmbedInto(dst, small *cmat.Matrix, qubits []int, n int) {
	k := len(qubits)
	if small.Rows != 1<<k || small.Cols != 1<<k {
		panic(fmt.Sprintf("gate: Embed: matrix %dx%d does not match %d qubits", small.Rows, small.Cols, k))
	}
	dim := 1 << n
	if dst.Rows != dim || dst.Cols != dim {
		panic(fmt.Sprintf("gate: Embed: destination %dx%d is not %dx%d", dst.Rows, dst.Cols, dim, dim))
	}
	clear(dst.Data)
	// Bit position of qubit q in an n-qubit index (qubit 0 = MSB).
	var arr [3]int
	bitpos := arr[:0]
	for _, q := range qubits {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("gate: Embed: qubit %d out of range [0,%d)", q, n))
		}
		bitpos = append(bitpos, n-1-q)
	}
	for row := 0; row < dim; row++ {
		// Extract the local row index and the invariant remainder bits.
		var localRow, rest int
		rest = row
		for i, bp := range bitpos {
			bit := (row >> bp) & 1
			localRow |= bit << (k - 1 - i)
			rest &^= 1 << bp
		}
		for localCol := 0; localCol < 1<<k; localCol++ {
			v := small.Data[localRow*small.Cols+localCol]
			if v == 0 {
				continue
			}
			col := rest
			for i, bp := range bitpos {
				bit := (localCol >> (k - 1 - i)) & 1
				col |= bit << bp
			}
			dst.Data[row*dim+col] = v
		}
	}
}
