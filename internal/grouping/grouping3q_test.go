package grouping

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

// Three-qubit policies: Table I's machinery with the qubit cap raised to
// 3, the cap the brute-force baseline (Fig. 15) divides under.
var (
	map3b2l = Policy{Name: "map3b2l", MaxQubits: 3, MaxLayers: 2, DecomposeSwap: true}
	map3b3l = Policy{Name: "map3b3l", MaxQubits: 3, MaxLayers: 3, DecomposeSwap: true}
)

// TestThreeQubitPolicyMergesAdjacentCX: CX(0,1) then CX(1,2) split under
// any 2b policy but merge into one dim-8 group when the qubit cap is 3.
func TestThreeQubitPolicyMergesAdjacentCX(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{1, 2})
	gr, err := Divide(c, map3b3l)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 merged 3-qubit group", len(gr.Groups))
	}
	g := gr.Groups[0]
	if len(g.Qubits) != 3 {
		t.Fatalf("group qubits = %v, want 3 qubits", g.Qubits)
	}
	u, err := g.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows != 8 || u.Cols != 8 {
		t.Fatalf("group unitary %dx%d, want 8x8", u.Rows, u.Cols)
	}
	if !cmat.IsUnitary(u, 1e-9) {
		t.Fatal("merged group unitary is not unitary")
	}
}

// TestThreeQubitGroupingPreservesSemantics runs the strongest grouping
// invariant — group-DAG product equals the circuit unitary — under the
// 3-qubit policies on random 4-qubit circuits, so 8×8 group unitaries flow
// through the same checks the 2Q catalog gets.
func TestThreeQubitGroupingPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 4
		c := circuit.New(n)
		for i := 0; i < 15; i++ {
			switch rng.Intn(3) {
			case 0:
				c.MustAppend(gate.H, []int{rng.Intn(n)})
			case 1:
				c.MustAppend(gate.T, []int{rng.Intn(n)})
			default:
				a, b := rng.Intn(n), rng.Intn(n)
				for b == a {
					b = rng.Intn(n)
				}
				c.MustAppend(gate.CX, []int{a, b})
			}
		}
		for _, pol := range []Policy{map3b2l, map3b3l} {
			gr, err := Divide(c, pol)
			if err != nil {
				t.Fatal(err)
			}
			order := groupTopoOrder(gr)
			if len(order) != len(gr.Groups) {
				t.Fatal("group DAG has a cycle")
			}
			sized := false
			acc := cmat.Identity(1 << n)
			for _, gi := range order {
				g := gr.Groups[gi]
				if len(g.Qubits) > 3 {
					t.Fatalf("group spans %d qubits under %s", len(g.Qubits), pol.Name)
				}
				if len(g.Qubits) == 3 {
					sized = true
				}
				u, err := g.Unitary()
				if err != nil {
					t.Fatal(err)
				}
				acc = cmat.Mul(gate.Embed(u, g.Qubits, n), acc)
			}
			want, err := c.Unitary()
			if err != nil {
				t.Fatal(err)
			}
			d := float64(want.Rows)
			overlap := cmplx.Abs(cmat.Trace(cmat.Mul(cmat.Dagger(want), acc))) / d
			if math.Abs(overlap-1) > 1e-9 {
				t.Fatalf("trial %d policy %s: grouping changed semantics, overlap=%v",
					trial, pol.Name, overlap)
			}
			_ = sized // some random circuits legitimately never merge to 3 qubits
		}
	}
}

// TestDeduplicateThreeQubitGroups checks dim-8 groups flow through the
// dedup keying (phase-canonical only at 8×8 — no permutation matching).
func TestDeduplicateThreeQubitGroups(t *testing.T) {
	mk := func() *Group {
		c := circuit.New(3)
		c.MustAppend(gate.CX, []int{0, 1})
		c.MustAppend(gate.CX, []int{1, 2})
		gr, err := Divide(c, map3b3l)
		if err != nil {
			t.Fatal(err)
		}
		if len(gr.Groups) != 1 {
			t.Fatalf("groups = %d, want 1", len(gr.Groups))
		}
		return gr.Groups[0]
	}
	uniq, err := Deduplicate([]*Group{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 1 {
		t.Fatalf("unique groups = %d, want 1 (identical dim-8 groups must coalesce)", len(uniq))
	}
	if uniq[0].Count != 2 {
		t.Fatalf("count = %d, want 2", uniq[0].Count)
	}
	if uniq[0].NumQubits != 3 {
		t.Fatalf("NumQubits = %d, want 3", uniq[0].NumQubits)
	}
}
