// Package simgraph builds the paper's similarity graph SG — a complete
// graph whose vertices are gate groups (plus the identity matrix as a
// special root) and whose edge weights are pairwise dissimilarities — and
// extracts the compilation sequence CS from a Prim minimum spanning tree
// rooted at the identity (§V-C, Fig. 9). Each vertex's MST parent is the
// pulse its training warm-starts from.
package simgraph

import (
	"fmt"
	"math"

	"accqoc/internal/cmat"
	"accqoc/internal/similarity"
)

// Graph is a complete weighted graph over n+1 vertices: vertex 0 is the
// identity root, vertices 1..n are the caller's unitaries in order.
type Graph struct {
	Fn      similarity.Func
	N       int         // total vertices including the identity root
	Weights [][]float64 // symmetric dissimilarity matrix
}

// Build constructs the similarity graph over the given unitaries. All
// matrices must share one dimension; the identity of that dimension is
// inserted as vertex 0.
func Build(us []*cmat.Matrix, fn similarity.Func) (*Graph, error) {
	if len(us) == 0 {
		return nil, fmt.Errorf("simgraph: no unitaries")
	}
	dim := us[0].Rows
	verts := make([]*cmat.Matrix, 0, len(us)+1)
	verts = append(verts, cmat.Identity(dim))
	for i, u := range us {
		if u.Rows != dim || u.Cols != dim {
			return nil, fmt.Errorf("simgraph: unitary %d is %dx%d, want %dx%d (build one graph per group size)",
				i, u.Rows, u.Cols, dim, dim)
		}
		verts = append(verts, u)
	}
	n := len(verts)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := similarity.Distance(fn, verts[i], verts[j])
			if err != nil {
				return nil, err
			}
			w[i][j] = d
			w[j][i] = d
		}
	}
	return &Graph{Fn: fn, N: n, Weights: w}, nil
}

// MST is a minimum spanning tree with Prim's vertex-selection order — the
// paper's compilation sequence.
type MST struct {
	// Parent[v] is v's MST parent; Parent[root] = -1.
	Parent []int
	// Order lists vertices in Prim selection order, starting at the root.
	Order []int
	// Cost[v] is the weight of the edge (Parent[v], v).
	Cost []float64
	// TotalWeight is the MST weight sum.
	TotalWeight float64
}

// PrimMST grows a minimum spanning tree from the given root (vertex 0 is
// the identity) and records the selection order.
func (g *Graph) PrimMST(root int) (*MST, error) {
	if root < 0 || root >= g.N {
		return nil, fmt.Errorf("simgraph: root %d out of range [0,%d)", root, g.N)
	}
	n := g.N
	inTree := make([]bool, n)
	parent := make([]int, n)
	cost := make([]float64, n)
	for i := range parent {
		parent[i] = -1
		cost[i] = math.Inf(1)
	}
	cost[root] = 0
	order := make([]int, 0, n)
	total := 0.0
	for len(order) < n {
		// Pick the cheapest fringe vertex (deterministic tie-break on
		// index keeps runs reproducible).
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || cost[v] < cost[best]) {
				best = v
			}
		}
		if math.IsInf(cost[best], 1) {
			return nil, fmt.Errorf("simgraph: graph disconnected (infinite weight)")
		}
		inTree[best] = true
		order = append(order, best)
		if parent[best] >= 0 {
			total += cost[best]
		}
		for v := 0; v < n; v++ {
			if !inTree[v] && g.Weights[best][v] < cost[v] {
				cost[v] = g.Weights[best][v]
				parent[v] = best
			}
		}
	}
	c := make([]float64, n)
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			c[v] = g.Weights[parent[v]][v]
		}
	}
	return &MST{Parent: parent, Order: order, Cost: c, TotalWeight: total}, nil
}

// Step is one entry of a compilation sequence: compile Group (an index into
// the caller's unitary list) warm-starting from WarmFrom (another index, or
// -1 for the identity).
type Step struct {
	Group    int
	WarmFrom int
	Distance float64 // MST edge weight to the warm-start source
}

// CompilationSequence converts the MST (over the identity-rooted graph) to
// the ordered compile schedule: vertices in Prim order, each warm-started
// from its MST parent. Vertex indices are shifted down by one so they index
// the caller's original unitary slice.
func (m *MST) CompilationSequence() []Step {
	steps := make([]Step, 0, len(m.Order)-1)
	for _, v := range m.Order {
		if v == 0 {
			continue // the identity root is not compiled
		}
		steps = append(steps, Step{
			Group:    v - 1,
			WarmFrom: m.Parent[v] - 1, // -1 when the parent is the identity
			Distance: m.Cost[v],
		})
	}
	return steps
}

// SequentialSequence is the baseline ordering the MST competes against:
// compile groups in their natural order, each warm-started from its
// predecessor (group i−1), the first from the identity.
func SequentialSequence(n int) []Step {
	steps := make([]Step, n)
	for i := 0; i < n; i++ {
		steps[i] = Step{Group: i, WarmFrom: i - 1}
	}
	return steps
}
