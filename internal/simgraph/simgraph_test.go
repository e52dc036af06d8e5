package simgraph

import (
	"math"
	"strings"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/similarity"
)

func rzU(t *testing.T, theta float64) *cmat.Matrix {
	t.Helper()
	u, err := gate.Unitary(gate.RZ, []float64{theta})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestBuildShape(t *testing.T) {
	us := []*cmat.Matrix{rzU(t, 0.1), rzU(t, 0.2), rzU(t, 0.3)}
	g, err := Build(us, similarity.TraceFid)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("N = %d, want 4 (3 groups + identity)", g.N)
	}
	for i := 0; i < g.N; i++ {
		if g.Weights[i][i] != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := 0; j < g.N; j++ {
			if math.Abs(g.Weights[i][j]-g.Weights[j][i]) > 1e-12 {
				t.Fatal("asymmetric weights")
			}
		}
	}
}

func TestBuildRejectsMixedSizes(t *testing.T) {
	cx, _ := gate.Unitary(gate.CX, nil)
	if _, err := Build([]*cmat.Matrix{rzU(t, 1), cx}, similarity.L2); err == nil {
		t.Fatal("mixed sizes accepted")
	}
	if _, err := Build(nil, similarity.L2); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPrimMSTChainStructure(t *testing.T) {
	// rz angles 0 (identity-adjacent), 0.5, 1.0, 1.5: the MST under a
	// monotone angle metric is the path identity→0.5→1.0→1.5 (nearest
	// neighbors chain).
	us := []*cmat.Matrix{rzU(t, 0.5), rzU(t, 1.0), rzU(t, 1.5)}
	g, err := Build(us, similarity.TraceFid)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := g.PrimMST(0)
	if err != nil {
		t.Fatal(err)
	}
	// Parents: vertex1(0.5)→0(id), vertex2(1.0)→1, vertex3(1.5)→2.
	want := []int{-1, 0, 1, 2}
	for v, p := range mst.Parent {
		if p != want[v] {
			t.Fatalf("Parent = %v, want %v", mst.Parent, want)
		}
	}
	if mst.Order[0] != 0 {
		t.Fatal("Prim order must start at the root")
	}
	if mst.TotalWeight <= 0 {
		t.Fatal("MST weight should be positive")
	}
}

func TestMSTMinimality(t *testing.T) {
	// Hand-checkable 3-vertex graph: identity, rz(0.1), rz(2.0).
	// Direct edges id→0.1 (cheap) and 0.1→2.0 beat id→2.0 plus anything.
	us := []*cmat.Matrix{rzU(t, 0.1), rzU(t, 2.0)}
	g, err := Build(us, similarity.TraceFid)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := g.PrimMST(0)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: 3 possible spanning trees on 3 vertices.
	w := g.Weights
	trees := []float64{
		w[0][1] + w[1][2],
		w[0][1] + w[0][2],
		w[0][2] + w[1][2],
	}
	best := math.Inf(1)
	for _, tw := range trees {
		if tw < best {
			best = tw
		}
	}
	if math.Abs(mst.TotalWeight-best) > 1e-12 {
		t.Fatalf("MST weight %v, brute force %v", mst.TotalWeight, best)
	}
}

func TestCompilationSequence(t *testing.T) {
	us := []*cmat.Matrix{rzU(t, 0.5), rzU(t, 1.0), rzU(t, 1.5)}
	g, _ := Build(us, similarity.TraceFid)
	mst, _ := g.PrimMST(0)
	steps := mst.CompilationSequence()
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	// First compiled group warm-starts from the identity.
	if steps[0].WarmFrom != -1 {
		t.Fatalf("first step warm-from = %d, want -1", steps[0].WarmFrom)
	}
	// Every later step warm-starts from an already-compiled group.
	compiled := map[int]bool{}
	for _, s := range steps {
		if s.WarmFrom != -1 && !compiled[s.WarmFrom] {
			t.Fatalf("step for group %d warm-starts from uncompiled %d", s.Group, s.WarmFrom)
		}
		compiled[s.Group] = true
	}
}

func TestSequenceHelpers(t *testing.T) {
	seq := SequentialSequence(3)
	if seq[0].WarmFrom != -1 || seq[2].WarmFrom != 1 {
		t.Fatalf("sequential = %+v", seq)
	}
}

func TestPrimRootValidation(t *testing.T) {
	us := []*cmat.Matrix{rzU(t, 0.5)}
	g, _ := Build(us, similarity.TraceFid)
	if _, err := g.PrimMST(9); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestMSTCoversAllVerticesOnce(t *testing.T) {
	us := []*cmat.Matrix{rzU(t, 0.3), rzU(t, 0.9), rzU(t, 2.2), rzU(t, -1.0)}
	g, _ := Build(us, similarity.L2)
	mst, err := g.PrimMST(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range mst.Order {
		if seen[v] {
			t.Fatal("vertex repeated in Prim order")
		}
		seen[v] = true
	}
	if len(seen) != g.N {
		t.Fatalf("order covers %d of %d vertices", len(seen), g.N)
	}
}

func TestDOTExport(t *testing.T) {
	us := []*cmat.Matrix{rzU(t, 0.5), rzU(t, 1.0)}
	g, _ := Build(us, similarity.TraceFid)
	mst, err := g.PrimMST(0)
	if err != nil {
		t.Fatal(err)
	}
	dot := mst.DOT([]string{"rz(0.5)", "rz(1.0)"})
	for _, want := range []string{"digraph mst", "identity", "rz(0.5)", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Every non-root vertex has exactly one incoming edge.
	if got := strings.Count(dot, "->"); got != g.N-1 {
		t.Fatalf("DOT has %d edges, want %d", got, g.N-1)
	}
	// Labels needing escaping do not break the output.
	dot2 := mst.DOT([]string{`a"b`, `c\d`})
	if !strings.Contains(dot2, `a\"b`) {
		t.Fatal("quote not escaped")
	}
}
