// Package mapping inserts swap gates to make a logical circuit executable
// on a device topology, using per-layer A* search in the style of Zulehner,
// Paler and Wille (TCAD 2018) with the paper's crosstalk-extended heuristic
// (§IV-A):
//
//	h(σ) = Σ_{g∈layer} h(g, σ) + Σ_{gm,gn∈layer} I(gm, gn)
//
// where h(g, σ) is the residual coupling distance of gate g under mapping σ
// and I(gm, gn) indicates two concurrent CX gates mapped too close to each
// other. Directed couplings are honored by sandwiching reversed CX gates in
// Hadamards.
package mapping

import (
	"container/heap"
	"fmt"
	"slices"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

// Options configures the mapper.
type Options struct {
	// CrosstalkAware enables the I(gm,gn) term of the heuristic.
	CrosstalkAware bool
	// CrosstalkWeight is the penalty per close concurrent CX pair. The
	// default 0.9 keeps it below one swap so it acts as a strong tiebreak.
	CrosstalkWeight float64
	// MaxExpansions bounds the A* search per layer before falling back to
	// greedy shortest-path routing. Default 20000.
	MaxExpansions int
}

func (o Options) withDefaults() Options {
	if o.CrosstalkWeight == 0 {
		o.CrosstalkWeight = 0.9
	}
	if o.MaxExpansions == 0 {
		o.MaxExpansions = 20000
	}
	return o
}

// Result is a mapped circuit plus bookkeeping.
type Result struct {
	// Mapped is the physical circuit: all gates reference device qubits,
	// swaps appear as explicit swap instances, reversed CXs are wrapped in
	// Hadamards.
	Mapped *circuit.Circuit
	// InitialLayout[l] is the physical qubit initially holding logical l.
	InitialLayout []int
	// FinalLayout[l] is the physical qubit holding logical l at the end.
	FinalLayout []int
	// SwapCount is the number of swap gates inserted.
	SwapCount int
	// DirectionFixes counts CX gates emitted against the native direction
	// (each costs four Hadamards).
	DirectionFixes int
	// GreedyFallbacks counts layers where A* exceeded its budget.
	GreedyFallbacks int
}

// Map routes the logical circuit onto the device. The circuit may use at
// most dev.NumQubits qubits; CCX gates must be decomposed beforehand.
func Map(c *circuit.Circuit, dev *topology.Device, opts Options) (*Result, error) {
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
		dev:    dev,
		opts:   opts,
		out:    circuit.New(dev.NumQubits),
		l2p:    make([]int, c.NumQubits),
		edges:  dev.UndirectedEdges(),
		active: make([]bool, dev.NumQubits),
		bestG:  map[string]seen{},
	}
	for l := range st.l2p {
		st.l2p[l] = l
	}
	init := append([]int(nil), st.l2p...)

	// Each layer's two-qubit pairs, built once into one array: a layer
	// routes its own pairs and looks ahead to the next layer's.
	dag := circuit.BuildDAG(c)
	layers := dag.Layers()
	twoQ := make([][][2]int, len(layers))
	all := make([][2]int, 0, c.TwoQubitGateCount())
	for li, layer := range layers {
		start := len(all)
		for _, gi := range layer {
			if g := c.Gates[gi]; len(g.Qubits) == 2 {
				all = append(all, [2]int{g.Qubits[0], g.Qubits[1]})
			}
		}
		if len(all) > start {
			twoQ[li] = all[start:len(all):len(all)]
		}
	}
	for li, layer := range layers {
		var next [][2]int
		if li+1 < len(layers) {
			next = twoQ[li+1]
		}
		if len(twoQ[li]) > 0 {
			if err := st.routeLayer(twoQ[li], next); err != nil {
				return nil, err
			}
		}
		for _, gi := range layer {
			if err := st.emitMapped(c.Gates[gi]); err != nil {
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

type state struct {
	dev       *topology.Device
	opts      Options
	out       *circuit.Circuit
	l2p       []int // logical → physical
	swaps     int
	dirFixes  int
	fallbacks int

	// The search's buffers, allocated once per Map and reused by every
	// layer and every A* expansion.
	edges  []topology.Edge // the device's couplings, each once
	active []bool          // activeQubits' set, indexed by physical qubit
	xedges []topology.Edge // crosstalkPairs' edge list
	layout []int           // a child's layout before pruning
	key    []byte          // its visited-set key
	route  [][2]int        // its swap list
	bestG  map[string]seen // best (swaps, penalty) reaching each layout
	open   nodeHeap        // the A* frontier
}

// emitMapped appends a logical gate translated to physical operands,
// fixing CX direction with Hadamards when needed.
func (s *state) emitMapped(g gate.Instance) error {
	var arr [2]int // Map admits at most two operands
	phys := arr[:len(g.Qubits)]
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

// applySwap records a physical swap and updates the layout.
func (s *state) applySwap(a, b int) error {
	if err := s.out.Append(gate.Swap, []int{a, b}); err != nil {
		return err
	}
	s.swaps++
	for l, p := range s.l2p {
		switch p {
		case a:
			s.l2p[l] = b
		case b:
			s.l2p[l] = a
		}
	}
	return nil
}

// routeLayer makes every logical pair in the layer adjacent by inserting
// swaps found with A* (greedy fallback on budget exhaustion). next carries
// the following layer's pairs for crosstalk lookahead.
func (s *state) routeLayer(pairs, next [][2]int) error {
	seq, ok := s.searchAStar(pairs, next)
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

// --- A* search over layouts ---

type searchNode struct {
	layout []int // logical → physical
	key    string
	swaps  [][2]int
	g      float64
	f      float64
	index  int
}

type nodeHeap []*searchNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *nodeHeap) Push(x interface{}) { n := x.(*searchNode); n.index = len(*h); *h = append(*h, n) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// appendLayoutKey appends a layout's visited-set key, one byte per
// logical qubit. Crosstalk-aware goal selection breaks cost ties on the
// smaller key, so this byte order is part of the mapper's output.
func appendLayoutKey(b []byte, layout []int) []byte {
	for _, p := range layout {
		b = append(b, byte(p))
	}
	return b
}

// seen is the best route found to one layout: its swap count and, when
// crosstalk-aware, its crosstalk penalty.
type seen struct {
	g   float64
	pen int
}

// heuristic is the residual swap-distance term Σ h(g, σ) of the paper's
// extended heuristic: each gate at coupling distance d needs at least d−1
// swaps.
func (s *state) heuristic(layout []int, pairs [][2]int) float64 {
	var h float64
	for _, pr := range pairs {
		a, b := layout[pr[0]], layout[pr[1]]
		d := s.dev.Distance(a, b)
		if d < 0 {
			return 1e18 // disconnected device region
		}
		if d > 1 {
			h += float64(d - 1)
		}
	}
	return h
}

// crosstalkPairs is the Σ I(gm, gn) term: the number of close concurrent
// CX pairs the layer would suffer under this layout, including the
// inserted swap gates of the candidate route — swaps lower to CX triples
// that execute adjacent to the layer's gates.
func (s *state) crosstalkPairs(layout []int, pairs [][2]int, swaps [][2]int) int {
	edges := s.xedges[:0]
	for _, pr := range pairs {
		edges = append(edges, topology.Edge{From: layout[pr[0]], To: layout[pr[1]]})
	}
	for _, sw := range swaps {
		edges = append(edges, topology.Edge{From: sw[0], To: sw[1]})
	}
	s.xedges = edges
	count := 0
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if s.dev.Close(edges[i], edges[j]) {
				count++
			}
		}
	}
	return count
}

func (s *state) executable(layout []int, pairs [][2]int) bool {
	for _, pr := range pairs {
		if s.dev.Distance(layout[pr[0]], layout[pr[1]]) != 1 {
			return false
		}
	}
	return true
}

// activeQubits marks in s.active the physical qubits currently hosting
// any logical qubit of the layer — swaps are only expanded on edges
// touching these, the standard Zulehner pruning.
func (s *state) activeQubits(layout []int, pairs [][2]int) []bool {
	clear(s.active)
	for _, pr := range pairs {
		s.active[layout[pr[0]]] = true
		s.active[layout[pr[1]]] = true
	}
	return s.active
}

// crosstalkSlack is how many extra swaps beyond the minimum the
// crosstalk-aware search may consider. Zero: the crosstalk term only
// arbitrates among minimal-swap routings — extra swaps are themselves
// two-qubit operations and empirically add more close pairs downstream
// than they remove in the current layer.
const crosstalkSlack = 0

// searchAStar routes one layer. Each child is built in the state's
// scratch buffers and copied out only if it survives the visited-set
// prune. The frontier is a container/heap, which breaks f ties by push
// order, so the order children are pushed in is part of the output.
func (s *state) searchAStar(pairs, next [][2]int) ([][2]int, bool) {
	start := &searchNode{layout: append([]int(nil), s.l2p...)}
	start.f = s.heuristic(start.layout, pairs)
	if s.executable(start.layout, pairs) && !s.opts.CrosstalkAware {
		return nil, true
	}
	start.key = string(appendLayoutKey(s.key[:0], start.layout))
	clear(s.open)
	open := &s.open
	*open = (*open)[:0]
	heap.Push(open, start)
	// Visited pruning keyed by layout. When crosstalk-aware, two routes to
	// one layout can differ in their swap-edge crosstalk, so the prune
	// keeps the (swaps, penalty) lexicographic best.
	penOf := func(layout []int, swaps [][2]int) int {
		if !s.opts.CrosstalkAware {
			return 0
		}
		return s.crosstalkPairs(layout, pairs, swaps)
	}
	clear(s.bestG)
	s.bestG[start.key] = seen{0, penOf(start.layout, nil)}

	// Phase 1 finds the minimal swap count gStar with plain A*. When
	// crosstalk-aware, phase 2 keeps popping nodes with f ≤ gStar + slack
	// and scores every goal by g + weight·I(σ), the paper's combined
	// objective; otherwise the first goal wins.
	expansions := 0
	gStar := -1.0
	var best *searchNode
	bestCost := 0.0
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
			cost := cur.g + s.opts.CrosstalkWeight*float64(s.crosstalkPairs(cur.layout, pairs, cur.swaps)) +
				0.5*s.opts.CrosstalkWeight*float64(s.crosstalkPairs(cur.layout, next, nil))
			if best == nil || cost < bestCost || (cost == bestCost && cur.key < best.key) {
				best, bestCost = cur, cost
			}
			// Goal states still expand: a further swap may trade into the
			// slack budget.
		}
		expansions++
		if expansions > s.opts.MaxExpansions {
			if best != nil {
				return best.swaps, true
			}
			return nil, false
		}
		if gStar >= 0 && cur.g >= gStar+crosstalkSlack {
			continue // deeper nodes cannot beat the slack budget
		}
		act := s.activeQubits(cur.layout, pairs)
		for _, e := range s.edges {
			if !act[e.From] && !act[e.To] {
				continue
			}
			nl := append(s.layout[:0], cur.layout...)
			for l, p := range nl {
				switch p {
				case e.From:
					nl[l] = e.To
				case e.To:
					nl[l] = e.From
				}
			}
			s.layout = nl
			ng := cur.g + 1
			s.key = appendLayoutKey(s.key[:0], nl)
			s.route = append(append(s.route[:0], cur.swaps...), [2]int{e.From, e.To})
			npen := penOf(nl, s.route)
			if old, ok := s.bestG[string(s.key)]; ok && (old.g < ng || (old.g == ng && old.pen <= npen)) {
				continue
			}
			nn := &searchNode{
				layout: slices.Clone(nl),
				key:    string(s.key),
				swaps:  slices.Clone(s.route),
				g:      ng,
			}
			s.bestG[nn.key] = seen{ng, npen}
			nn.f = ng + s.heuristic(nl, pairs)
			heap.Push(open, nn)
		}
	}
	if best == nil {
		return nil, false
	}
	return best.swaps, true
}

// greedyRoute walks each non-adjacent pair toward each other along a
// shortest path, one swap at a time. Always terminates on a connected
// device.
func (s *state) greedyRoute(pairs [][2]int) ([][2]int, error) {
	layout := append([]int(nil), s.l2p...)
	var seq [][2]int
	for _, pr := range pairs {
		for s.distOf(layout, pr) > 1 {
			a := layout[pr[0]]
			b := layout[pr[1]]
			// Move a one step along a shortest path toward b.
			next := -1
			for _, nb := range s.dev.Neighbors(a) {
				if s.dev.Distance(nb, b) == s.dev.Distance(a, b)-1 {
					next = nb
					break
				}
			}
			if next < 0 {
				return nil, fmt.Errorf("mapping: no path between physical %d and %d", a, b)
			}
			seq = append(seq, [2]int{a, next})
			for l, p := range layout {
				switch p {
				case a:
					layout[l] = next
				case next:
					layout[l] = a
				}
			}
		}
	}
	return seq, nil
}

func (s *state) distOf(layout []int, pr [2]int) int {
	return s.dev.Distance(layout[pr[0]], layout[pr[1]])
}

// DecomposeSwaps rewrites every swap gate in a physical circuit into three
// CX gates, fixing CX direction with Hadamards as needed — the lowering
// behind the paper's "map" policies (a swap is not a native operation on
// IBM hardware).
func DecomposeSwaps(c *circuit.Circuit, dev *topology.Device) (*circuit.Circuit, error) {
	out := circuit.New(c.NumQubits)
	emitCX := func(ctrl, tgt int) error {
		switch {
		case dev.CXDirected(ctrl, tgt):
			return out.Append(gate.CX, []int{ctrl, tgt})
		case dev.CXDirected(tgt, ctrl):
			for _, q := range []int{ctrl, tgt} {
				if err := out.Append(gate.H, []int{q}); err != nil {
					return err
				}
			}
			if err := out.Append(gate.CX, []int{tgt, ctrl}); err != nil {
				return err
			}
			for _, q := range []int{ctrl, tgt} {
				if err := out.Append(gate.H, []int{q}); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("mapping: swap on non-adjacent qubits %d,%d", ctrl, tgt)
		}
	}
	for _, g := range c.Gates {
		if g.Name != gate.Swap {
			if err := out.Append(g.Name, g.Qubits, g.Params...); err != nil {
				return nil, err
			}
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if err := emitCX(a, b); err != nil {
			return nil, err
		}
		if err := emitCX(b, a); err != nil {
			return nil, err
		}
		if err := emitCX(a, b); err != nil {
			return nil, err
		}
	}
	return out, nil
}
