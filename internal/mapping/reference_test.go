package mapping

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

// Reference model: the mapper as it was before its search moved into
// reusable scratch buffers — the layer pair lists built twice, the
// undirected edge list, active-qubit map, crosstalk edge list, child
// layout, key and swap list all allocated per A* expansion. Map must
// reproduce its every output.

func mapRef(c *circuit.Circuit, dev *topology.Device, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if c.NumQubits > dev.NumQubits {
		return nil, fmt.Errorf("mapping: circuit needs %d qubits, device %q has %d",
			c.NumQubits, dev.Name, dev.NumQubits)
	}
	for _, g := range c.Gates {
		if len(g.Qubits) > 2 {
			return nil, fmt.Errorf("mapping: gate %s has %d operands; decompose first", g.Name, len(g.Qubits))
		}
	}
	st := &state{
		dev:  dev,
		opts: opts,
		out:  circuit.New(dev.NumQubits),
		l2p:  make([]int, c.NumQubits),
	}
	for l := range st.l2p {
		st.l2p[l] = l
	}
	init := append([]int(nil), st.l2p...)
	dag := circuit.BuildDAG(c)
	layers := dag.Layers()
	twoQOf := func(layer []int) [][2]int {
		var out [][2]int
		for _, gi := range layer {
			g := c.Gates[gi]
			if len(g.Qubits) == 2 {
				out = append(out, [2]int{g.Qubits[0], g.Qubits[1]})
			}
		}
		return out
	}
	for li, layer := range layers {
		twoQ := twoQOf(layer)
		var next [][2]int
		if li+1 < len(layers) {
			next = twoQOf(layers[li+1])
		}
		if len(twoQ) > 0 {
			if err := st.routeLayerRef(twoQ, next); err != nil {
				return nil, err
			}
		}
		for _, gi := range layer {
			if err := st.emitMappedRef(c.Gates[gi]); err != nil {
				return nil, err
			}
		}
	}
	return &Result{
		Mapped:          st.out,
		InitialLayout:   init,
		FinalLayout:     append([]int(nil), st.l2p...),
		SwapCount:       st.swaps,
		DirectionFixes:  st.dirFixes,
		GreedyFallbacks: st.fallbacks,
	}, nil
}

func (s *state) emitMappedRef(g gate.Instance) error {
	phys := make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		phys[i] = s.l2p[q]
	}
	if len(phys) == 2 && g.Name == gate.CX {
		c, t := phys[0], phys[1]
		switch {
		case s.dev.CXDirected(c, t):
			return s.out.Append(gate.CX, []int{c, t})
		case s.dev.CXDirected(t, c):
			s.dirFixes++
			for _, q := range []int{c, t} {
				if err := s.out.Append(gate.H, []int{q}); err != nil {
					return err
				}
			}
			if err := s.out.Append(gate.CX, []int{t, c}); err != nil {
				return err
			}
			for _, q := range []int{c, t} {
				if err := s.out.Append(gate.H, []int{q}); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("mapping: CX on non-adjacent physical qubits %d,%d", c, t)
		}
	}
	return s.out.Append(g.Name, phys, g.Params...)
}

func (s *state) routeLayerRef(pairs, next [][2]int) error {
	seq, ok := s.searchAStarRef(pairs, next)
	if !ok {
		s.fallbacks++
		var err error
		seq, err = s.greedyRoute(pairs)
		if err != nil {
			return err
		}
	}
	for _, sw := range seq {
		if err := s.applySwap(sw[0], sw[1]); err != nil {
			return err
		}
	}
	return nil
}

func layoutKeyRef(layout []int) string {
	b := make([]byte, len(layout))
	for i, p := range layout {
		b[i] = byte(p)
	}
	return string(b)
}

func edgeDistanceRef(d *topology.Device, e1, e2 topology.Edge) int {
	best := -1
	for _, a := range []int{e1.From, e1.To} {
		for _, b := range []int{e2.From, e2.To} {
			dd := d.Distance(a, b)
			if dd >= 0 && (best < 0 || dd < best) {
				best = dd
			}
		}
	}
	return best
}

func (s *state) crosstalkPairsRef(layout []int, pairs [][2]int, swaps [][2]int) int {
	edges := make([]topology.Edge, 0, len(pairs)+len(swaps))
	for _, pr := range pairs {
		edges = append(edges, topology.Edge{From: layout[pr[0]], To: layout[pr[1]]})
	}
	for _, sw := range swaps {
		edges = append(edges, topology.Edge{From: sw[0], To: sw[1]})
	}
	count := 0
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			d := edgeDistanceRef(s.dev, edges[i], edges[j])
			if d >= 0 && d <= 1 {
				count++
			}
		}
	}
	return count
}

func (s *state) activeQubitsRef(layout []int, pairs [][2]int) map[int]bool {
	act := map[int]bool{}
	for _, pr := range pairs {
		act[layout[pr[0]]] = true
		act[layout[pr[1]]] = true
	}
	return act
}

func (s *state) searchAStarRef(pairs, next [][2]int) ([][2]int, bool) {
	start := &searchNode{layout: append([]int(nil), s.l2p...)}
	start.f = s.heuristic(start.layout, pairs)
	if s.executable(start.layout, pairs) && !s.opts.CrosstalkAware {
		return nil, true
	}
	open := &nodeHeap{}
	heap.Init(open)
	heap.Push(open, start)
	type seen struct {
		g   float64
		pen int
	}
	penOf := func(layout []int, swaps [][2]int) int {
		if !s.opts.CrosstalkAware {
			return 0
		}
		return s.crosstalkPairsRef(layout, pairs, swaps)
	}
	bestG := map[string]seen{layoutKeyRef(start.layout): {0, penOf(start.layout, nil)}}
	expansions := 0
	gStar := -1.0
	var best *searchNode
	bestCost := 0.0
	bestKey := ""
	for open.Len() > 0 {
		cur := heap.Pop(open).(*searchNode)
		if gStar >= 0 && cur.f > gStar+crosstalkSlack {
			break
		}
		if s.executable(cur.layout, pairs) {
			if !s.opts.CrosstalkAware {
				return cur.swaps, true
			}
			if gStar < 0 {
				gStar = cur.g
			}
			cost := cur.g + s.opts.CrosstalkWeight*float64(s.crosstalkPairsRef(cur.layout, pairs, cur.swaps)) +
				0.5*s.opts.CrosstalkWeight*float64(s.crosstalkPairsRef(cur.layout, next, nil))
			key := layoutKeyRef(cur.layout)
			if best == nil || cost < bestCost || (cost == bestCost && key < bestKey) {
				best, bestCost, bestKey = cur, cost, key
			}
		}
		expansions++
		if expansions > s.opts.MaxExpansions {
			if best != nil {
				return best.swaps, true
			}
			return nil, false
		}
		if gStar >= 0 && cur.g >= gStar+crosstalkSlack {
			continue
		}
		act := s.activeQubitsRef(cur.layout, pairs)
		for _, e := range s.dev.UndirectedEdges() {
			if !act[e.From] && !act[e.To] {
				continue
			}
			nl := append([]int(nil), cur.layout...)
			for l, p := range nl {
				switch p {
				case e.From:
					nl[l] = e.To
				case e.To:
					nl[l] = e.From
				}
			}
			ng := cur.g + 1
			key := layoutKeyRef(nl)
			nswaps := append(append([][2]int(nil), cur.swaps...), [2]int{e.From, e.To})
			npen := penOf(nl, nswaps)
			if old, ok := bestG[key]; ok && (old.g < ng || (old.g == ng && old.pen <= npen)) {
				continue
			}
			bestG[key] = seen{ng, npen}
			nn := &searchNode{
				layout: nl,
				swaps:  nswaps,
				g:      ng,
			}
			nn.f = ng + s.heuristic(nl, pairs)
			heap.Push(open, nn)
		}
	}
	if best == nil {
		return nil, false
	}
	return best.swaps, true
}

// referenceProgram draws a logical program of 2..maxQubits qubits and
// 1..40 gates over one-, two- and three-qubit gates; Toffolis are
// decomposed, as Map requires.
func referenceProgram(rng *rand.Rand, maxQubits int) *circuit.Circuit {
	qubits := 2 + rng.Intn(maxQubits-1)
	names := []gate.Name{gate.H, gate.T, gate.RZ, gate.CX, gate.CX, gate.CX, gate.CZ, gate.Swap}
	if qubits >= 3 {
		names = append(names, gate.CCX)
	}
	c := circuit.New(qubits)
	for n := 1 + rng.Intn(40); n > 0; n-- {
		name := names[rng.Intn(len(names))]
		spec, _ := gate.Lookup(name)
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = rng.Float64() * 2 * math.Pi
		}
		c.MustAppend(name, rng.Perm(qubits)[:spec.Qubits], params...)
	}
	return c.DecomposeCCX()
}

// TestMapMatchesReference compares Map with the reference model on
// thousands of seeded programs on Melbourne, a 3×3 grid and a 5-qubit
// chain, crosstalk-aware and not, under the default A* budget and under
// budgets small enough to take the greedy fallback. Outputs and errors
// must agree exactly.
func TestMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	devs := []*topology.Device{topology.Melbourne(), topology.Grid(3, 3), topology.Linear(5)}
	fallbacks, failures := 0, 0
	for trial := 0; trial < 3000; trial++ {
		dev := devs[trial%len(devs)]
		opts := Options{CrosstalkAware: trial/3%2 == 0}
		if trial/6%2 == 1 {
			opts.MaxExpansions = 1 + rng.Intn(8)
		}
		c := referenceProgram(rng, dev.NumQubits)
		got, err := Map(c, dev, opts)
		want, werr := mapRef(c, dev, opts)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("trial %d on %s (%+v): error %v, want %v", trial, dev.Name, opts, err, werr)
		}
		if werr != nil {
			failures++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d on %s (%+v): Map diverged from the reference model\n got %+v\nwant %+v",
				trial, dev.Name, opts, got, want)
		}
		fallbacks += got.GreedyFallbacks
	}
	if fallbacks == 0 {
		t.Fatal("no greedy fallback taken; the budget path went untested")
	}
	t.Logf("%d greedy fallbacks, %d programs failed alike in both models", fallbacks, failures)
}
