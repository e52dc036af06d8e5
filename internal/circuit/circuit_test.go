package circuit

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

func bell() *Circuit {
	c := New(2)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.CX, []int{0, 1})
	return c
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	if err := c.Append(gate.X, []int{5}); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	if err := c.Append("bogus", []int{0}); err == nil {
		t.Fatal("unknown gate accepted")
	}
	if err := c.Append(gate.RZ, []int{0}, 0.5); err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 1 {
		t.Fatal("gate not appended")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := bell()
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	if c.Gates[0].Qubits[0] == 1 {
		t.Fatal("Clone aliases gates")
	}
}

func TestInstructionMix(t *testing.T) {
	c := New(3)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.T, []int{2})
	mix := c.InstructionMix()
	if mix[gate.H] != 2 || mix[gate.CX] != 1 || mix[gate.T] != 1 {
		t.Fatalf("mix = %v", mix)
	}
}

func TestBellUnitary(t *testing.T) {
	u, err := bell().Unitary()
	if err != nil {
		t.Fatal(err)
	}
	if !cmat.IsUnitary(u, 1e-12) {
		t.Fatal("bell circuit unitary is not unitary")
	}
	// Applying to |00⟩ must give (|00⟩+|11⟩)/√2: column 0.
	s := 1 / math.Sqrt2
	if cmplx.Abs(u.At(0, 0)-complex(s, 0)) > 1e-12 ||
		cmplx.Abs(u.At(3, 0)-complex(s, 0)) > 1e-12 ||
		cmplx.Abs(u.At(1, 0)) > 1e-12 || cmplx.Abs(u.At(2, 0)) > 1e-12 {
		t.Fatalf("Bell column 0 wrong:\n%v", u)
	}
}

func TestUnitaryOrderMatters(t *testing.T) {
	// X then H on one qubit: U = H·X (rightmost acts first).
	c := New(1)
	c.MustAppend(gate.X, []int{0})
	c.MustAppend(gate.H, []int{0})
	u, err := c.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := gate.Unitary(gate.X, nil)
	h, _ := gate.Unitary(gate.H, nil)
	if !u.EqualApprox(cmat.Mul(h, x), 1e-12) {
		t.Fatal("gate application order wrong in Unitary")
	}
}

func TestUnitaryQubitGuard(t *testing.T) {
	c := New(11)
	if _, err := c.Unitary(); err == nil {
		t.Fatal("expected guard against 11-qubit unitary")
	}
}

func TestDAGChainAndParallel(t *testing.T) {
	// q0: H──CX(c)──T
	// q1:      CX(t)
	// q2: X (independent)
	c := New(3)
	c.MustAppend(gate.H, []int{0})     // 0
	c.MustAppend(gate.X, []int{2})     // 1
	c.MustAppend(gate.CX, []int{0, 1}) // 2
	c.MustAppend(gate.T, []int{0})     // 3
	d := BuildDAG(c)

	if len(d.Preds[0]) != 0 || len(d.Preds[1]) != 0 {
		t.Fatal("roots must have no preds")
	}
	if len(d.Preds[2]) != 1 || d.Preds[2][0] != 0 {
		t.Fatalf("CX preds = %v, want [0]", d.Preds[2])
	}
	if len(d.Preds[3]) != 1 || d.Preds[3][0] != 2 {
		t.Fatalf("T preds = %v, want [2]", d.Preds[3])
	}
	if len(d.Succs[0]) != 1 || d.Succs[0][0] != 2 {
		t.Fatalf("H succs = %v", d.Succs[0])
	}
	wantDepth := []int{0, 0, 1, 2}
	for i, w := range wantDepth {
		if d.Depth[i] != w {
			t.Fatalf("Depth[%d] = %d, want %d", i, d.Depth[i], w)
		}
	}
	if d.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d, want 3", d.NumLayers())
	}
	layers := d.Layers()
	if len(layers[0]) != 2 || len(layers[1]) != 1 || len(layers[2]) != 1 {
		t.Fatalf("layers = %v", layers)
	}
}

func TestDAGTwoQubitJoin(t *testing.T) {
	// Two independent single-qubit gates joined by a CX: the CX has two
	// predecessors.
	c := New(2)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	c.MustAppend(gate.CX, []int{0, 1})
	d := BuildDAG(c)
	if len(d.Preds[2]) != 2 {
		t.Fatalf("CX should join two preds, got %v", d.Preds[2])
	}
	if d.Depth[2] != 1 {
		t.Fatal("CX depth wrong")
	}
}

func TestEmptyCircuitDAG(t *testing.T) {
	d := BuildDAG(New(4))
	if d.NumLayers() != 0 {
		t.Fatal("empty circuit has layers")
	}
	if len(d.TopologicalOrder()) != 0 {
		t.Fatal("empty circuit has order")
	}
}

func TestDecomposeCCXInCircuit(t *testing.T) {
	c := New(3)
	c.MustAppend(gate.CCX, []int{0, 1, 2})
	dec := c.DecomposeCCX()
	if dec.GateCount() != 15 {
		t.Fatalf("decomposed gate count = %d, want 15", dec.GateCount())
	}
	u1, err := c.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	u2, err := dec.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	overlap := cmplx.Abs(cmat.Trace(cmat.Mul(cmat.Dagger(u1), u2))) / 8
	if math.Abs(overlap-1) > 1e-10 {
		t.Fatalf("decomposition changed the unitary, overlap=%v", overlap)
	}
}

func TestUsedQubitsAndTwoQubitCount(t *testing.T) {
	c := New(5)
	c.MustAppend(gate.X, []int{3})
	c.MustAppend(gate.CX, []int{1, 3})
	q := c.UsedQubits()
	if len(q) != 2 || q[0] != 1 || q[1] != 3 {
		t.Fatalf("UsedQubits = %v", q)
	}
	if c.TwoQubitGateCount() != 1 {
		t.Fatal("TwoQubitGateCount wrong")
	}
}

// buildDAGRef is the reference model of BuildDAG: a map deduplicates each
// gate's predecessors, which are then sorted.
func buildDAGRef(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circuit: c,
		Preds:   make([][]int, n),
		Succs:   make([][]int, n),
		Depth:   make([]int, n),
	}
	last := make([]int, c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	for i, g := range c.Gates {
		predSet := map[int]bool{}
		depth := 0
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 {
				predSet[p] = true
				if d.Depth[p]+1 > depth {
					depth = d.Depth[p] + 1
				}
			}
			last[q] = i
		}
		d.Depth[i] = depth
		preds := make([]int, 0, len(predSet))
		for p := range predSet {
			preds = append(preds, p)
		}
		sort.Ints(preds)
		d.Preds[i] = preds
		for _, p := range preds {
			d.Succs[p] = append(d.Succs[p], i)
		}
	}
	return d
}

// TestBuildDAGMatchesReference compares BuildDAG with buildDAGRef, and
// Layers with appending each gate to its depth's layer, on random
// circuits of one-, two- and three-qubit gates. Few wires make
// repeated predecessors common: a CX or CCX right after a gate on the
// same wires depends on it through every shared wire.
func TestBuildDAGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(5)
		c := New(n)
		for g := rng.Intn(60); g > 0; g-- {
			p := rng.Perm(n)
			switch rng.Intn(4) {
			case 0:
				c.MustAppend(gate.H, p[:1])
			case 1, 2:
				c.MustAppend(gate.CX, p[:2])
			default:
				c.MustAppend(gate.CCX, p[:3])
			}
		}
		got, want := BuildDAG(c), buildDAGRef(c)
		if !reflect.DeepEqual(got.Preds, want.Preds) || !reflect.DeepEqual(got.Succs, want.Succs) || !reflect.DeepEqual(got.Depth, want.Depth) {
			t.Fatalf("trial %d: BuildDAG %v %v %v, reference %v %v %v", trial, got.Preds, got.Succs, got.Depth, want.Preds, want.Succs, want.Depth)
		}
		wantLayers := make([][]int, want.NumLayers())
		for i, dep := range want.Depth {
			wantLayers[dep] = append(wantLayers[dep], i)
		}
		if layers := got.Layers(); !reflect.DeepEqual(layers, wantLayers) {
			t.Fatalf("trial %d: Layers %v, reference %v", trial, layers, wantLayers)
		}
	}
}
