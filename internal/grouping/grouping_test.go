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

func TestPolicyCatalog(t *testing.T) {
	if len(Policies) != 6 {
		t.Fatalf("policy count = %d, want 6 (Table I)", len(Policies))
	}
	p, err := PolicyByName("map2b4l")
	if err != nil || p.MaxQubits != 2 || p.MaxLayers != 4 || !p.DecomposeSwap {
		t.Fatalf("map2b4l = %+v, err %v", p, err)
	}
	// Table I stops at two-qubit groups; 3-qubit names are unknown.
	for _, name := range []string{"nope", "map3b3l"} {
		if _, err := PolicyByName(name); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
}

func TestSingleWireChainFormsOneGroup(t *testing.T) {
	c := circuit.New(2)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.T, []int{0})
	c.MustAppend(gate.H, []int{0})
	gr, err := Divide(c, Policy{Name: "t", MaxQubits: 2, MaxLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(gr.Groups))
	}
	if len(gr.Groups[0].Gates) != 3 {
		t.Fatalf("group size = %d, want 3", len(gr.Groups[0].Gates))
	}
}

func TestTwoQubitBudgetSplits(t *testing.T) {
	// CX(0,1) then CX(1,2): union would span 3 qubits, must split.
	c := circuit.New(3)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{1, 2})
	gr, err := Divide(c, Policy{Name: "t", MaxQubits: 2, MaxLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(gr.Groups))
	}
	// The second group depends on the first.
	if len(gr.Preds[1]) != 1 || gr.Preds[1][0] != 0 {
		t.Fatalf("Preds[1] = %v", gr.Preds[1])
	}
}

func TestMergeTwoPredecessorGroups(t *testing.T) {
	// H(0) and H(1) form two single-wire groups merged by CX(0,1).
	c := circuit.New(2)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	c.MustAppend(gate.CX, []int{0, 1})
	gr, err := Divide(c, Policy{Name: "t", MaxQubits: 2, MaxLayers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (merge case)", len(gr.Groups))
	}
	if len(gr.Groups[0].Gates) != 3 {
		t.Fatal("merged group should hold all three gates")
	}
}

func TestConvexityInterleavingBlocked(t *testing.T) {
	// A = CX(0,1); B = CX(1,2); C = CX(0,1).
	// C must NOT join A's group because B interleaves on wire 1.
	c := circuit.New(3)
	c.MustAppend(gate.CX, []int{0, 1}) // A
	c.MustAppend(gate.CX, []int{1, 2}) // B
	c.MustAppend(gate.CX, []int{0, 1}) // C
	gr, err := Divide(c, Policy{Name: "t", MaxQubits: 2, MaxLayers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gr.Groups {
		has := map[int]bool{}
		for _, gi := range g.GateIndices {
			has[gi] = true
		}
		if has[0] && has[2] && !has[1] {
			t.Fatal("non-convex group {A, C} produced")
		}
	}
}

func TestLayerDividing(t *testing.T) {
	// Six sequential T gates on one qubit with MaxLayers=2 → 3 chunks.
	c := circuit.New(1)
	for i := 0; i < 6; i++ {
		c.MustAppend(gate.T, []int{0})
	}
	gr, err := Divide(c, Policy{Name: "t", MaxQubits: 2, MaxLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(gr.Groups))
	}
	for i, g := range gr.Groups {
		if len(g.Gates) != 2 {
			t.Fatalf("group %d size = %d, want 2", i, len(g.Gates))
		}
	}
	// Chain dependencies 0→1→2.
	if len(gr.Preds[1]) != 1 || len(gr.Preds[2]) != 1 {
		t.Fatalf("layer chunks must chain: %v / %v", gr.Preds[1], gr.Preds[2])
	}
}

func TestLocalCircuitRemap(t *testing.T) {
	g := &Group{
		Qubits: []int{3, 7},
		Gates:  []gate.Instance{gate.MustInstance(gate.CX, []int{7, 3})},
	}
	lc := g.LocalCircuit()
	if lc.NumQubits != 2 {
		t.Fatal("local circuit wire count")
	}
	if lc.Gates[0].Qubits[0] != 1 || lc.Gates[0].Qubits[1] != 0 {
		t.Fatalf("local remap = %v, want [1 0]", lc.Gates[0].Qubits)
	}
}

// groupTopoOrder returns a Kahn topological order of the group DAG.
func groupTopoOrder(gr *Grouping) []int {
	indeg := make([]int, len(gr.Groups))
	for i := range gr.Groups {
		indeg[i] = len(gr.Preds[i])
	}
	var queue, order []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		for _, s := range gr.Succs[cur] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order
}

func TestGroupingPreservesSemantics(t *testing.T) {
	// Multiply group unitaries in group-DAG topological order and compare
	// against the whole-circuit unitary. This is the strongest grouping
	// invariant: groups are convex and the group DAG is a faithful
	// coarsening.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(2)
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
		for _, pol := range []Policy{
			{Name: "2b2l", MaxQubits: 2, MaxLayers: 2},
			{Name: "2b4l", MaxQubits: 2, MaxLayers: 4},
		} {
			gr, err := Divide(c, pol)
			if err != nil {
				t.Fatal(err)
			}
			order := groupTopoOrder(gr)
			if len(order) != len(gr.Groups) {
				t.Fatal("group DAG has a cycle")
			}
			acc := cmat.Identity(1 << n)
			for _, gi := range order {
				g := gr.Groups[gi]
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
		}
	}
}

func TestGroupSizeRespectsPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := circuit.New(5)
	for i := 0; i < 40; i++ {
		a, b := rng.Intn(5), rng.Intn(5)
		for b == a {
			b = rng.Intn(5)
		}
		c.MustAppend(gate.CX, []int{a, b})
	}
	pol := Policy{Name: "2b3l", MaxQubits: 2, MaxLayers: 3}
	gr, err := Divide(c, pol)
	if err != nil {
		t.Fatal(err)
	}
	dag := circuit.BuildDAG(c)
	for _, g := range gr.Groups {
		if len(g.Qubits) > pol.MaxQubits {
			t.Fatalf("group spans %d qubits", len(g.Qubits))
		}
		min, max := 1<<30, -1
		for _, gi := range g.GateIndices {
			if dag.Depth[gi] < min {
				min = dag.Depth[gi]
			}
			if dag.Depth[gi] > max {
				max = dag.Depth[gi]
			}
		}
		if max-min+1 > pol.MaxLayers {
			t.Fatalf("group spans %d layers > %d", max-min+1, pol.MaxLayers)
		}
	}
}

func TestDeduplicate(t *testing.T) {
	mk := func(names ...gate.Name) *Group {
		g := &Group{Qubits: []int{0, 1}}
		for _, n := range names {
			g.Gates = append(g.Gates, gate.MustInstance(n, []int{0, 1}))
		}
		return g
	}
	groups := []*Group{
		mk(gate.CX), mk(gate.CX), mk(gate.CX),
		mk(gate.Swap),
	}
	uniq, err := Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 2 {
		t.Fatalf("unique = %d, want 2", len(uniq))
	}
	if uniq[0].Count != 3 {
		t.Fatalf("most frequent count = %d, want 3 (sorted by frequency)", uniq[0].Count)
	}
}

func TestDeduplicatePermutedQubits(t *testing.T) {
	// CX(0,1) on qubits {2,3} vs CX(1,0) on qubits {5,6}: same operation
	// with permuted qubits — the paper treats these as duplicates.
	g1 := &Group{Qubits: []int{2, 3}, Gates: []gate.Instance{gate.MustInstance(gate.CX, []int{2, 3})}}
	g2 := &Group{Qubits: []int{5, 6}, Gates: []gate.Instance{gate.MustInstance(gate.CX, []int{6, 5})}}
	uniq, err := Deduplicate([]*Group{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 1 {
		t.Fatalf("permuted CX groups not deduplicated: %d unique", len(uniq))
	}
	if uniq[0].Count != 2 {
		t.Fatal("count wrong")
	}
}

func TestDeduplicateGlobalPhase(t *testing.T) {
	// rz(θ) and u1(θ) differ only by a global phase — same pulse target.
	g1 := &Group{Qubits: []int{0}, Gates: []gate.Instance{gate.MustInstance(gate.RZ, []int{0}, 0.7)}}
	g2 := &Group{Qubits: []int{0}, Gates: []gate.Instance{gate.MustInstance(gate.U1, []int{0}, 0.7)}}
	uniq, err := Deduplicate([]*Group{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 1 {
		t.Fatalf("phase-equivalent groups not deduplicated: %d unique", len(uniq))
	}
}

func TestMatrixKeyDistinguishesDifferentOps(t *testing.T) {
	cx, _ := gate.Unitary(gate.CX, nil)
	sw, _ := gate.Unitary(gate.Swap, nil)
	if MatrixKey(cx) == MatrixKey(sw) {
		t.Fatal("CX and SWAP share a key")
	}
	h, _ := gate.Unitary(gate.H, nil)
	x, _ := gate.Unitary(gate.X, nil)
	if MatrixKey(h) == MatrixKey(x) {
		t.Fatal("H and X share a key")
	}
}

func TestDivideInvalidPolicy(t *testing.T) {
	if _, err := Divide(circuit.New(1), Policy{}); err == nil {
		t.Fatal("zero policy accepted")
	}
}

func TestEmptyCircuit(t *testing.T) {
	gr, err := Divide(circuit.New(3), Policy{Name: "t", MaxQubits: 2, MaxLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 0 {
		t.Fatal("empty circuit produced groups")
	}
}
