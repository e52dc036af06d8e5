package grouping

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/mapping"
	"accqoc/internal/topology"
)

// Reference models: the map-based Divide, bitDivide and layerDivide and
// the LocalCircuit-based Unitary that the slice- and stamp-based versions
// replaced. Every output of the replacements must match them exactly.

func divideRef(c *circuit.Circuit, pol Policy) (*Grouping, error) {
	if pol.MaxQubits < 1 || pol.MaxLayers < 1 {
		return nil, fmt.Errorf("grouping: invalid policy %+v", pol)
	}
	dag := circuit.BuildDAG(c)
	big := bitDivideRef(c, pol.MaxQubits)
	chunks := layerDivideRef(dag, big, pol.MaxLayers)

	gr := &Grouping{Policy: pol}
	gateToGroup := make([]int, len(c.Gates))
	for _, chunk := range chunks {
		grp := &Group{}
		qubitSet := map[int]bool{}
		for _, gi := range chunk {
			inst := c.Gates[gi]
			grp.Gates = append(grp.Gates, inst)
			grp.GateIndices = append(grp.GateIndices, gi)
			for _, q := range inst.Qubits {
				qubitSet[q] = true
			}
		}
		for q := range qubitSet {
			grp.Qubits = append(grp.Qubits, q)
		}
		sort.Ints(grp.Qubits)
		id := len(gr.Groups)
		gr.Groups = append(gr.Groups, grp)
		for _, gi := range chunk {
			gateToGroup[gi] = id
		}
	}
	n := len(gr.Groups)
	predSet := make([]map[int]bool, n)
	for i := range predSet {
		predSet[i] = map[int]bool{}
	}
	for gi := range c.Gates {
		gg := gateToGroup[gi]
		for _, p := range dag.Preds[gi] {
			pg := gateToGroup[p]
			if pg != gg {
				predSet[gg][pg] = true
			}
		}
	}
	gr.Preds = make([][]int, n)
	gr.Succs = make([][]int, n)
	for i, s := range predSet {
		for p := range s {
			gr.Preds[i] = append(gr.Preds[i], p)
		}
		sort.Ints(gr.Preds[i])
		for _, p := range gr.Preds[i] {
			gr.Succs[p] = append(gr.Succs[p], i)
		}
	}
	return gr, nil
}

func bitDivideRef(c *circuit.Circuit, maxQubits int) [][]int {
	type bigGroup struct {
		gates  []int
		qubits map[int]bool
	}
	var groups []*bigGroup
	owner := map[int]*bigGroup{}

	for gi, inst := range c.Gates {
		candSet := map[*bigGroup]bool{}
		for _, q := range inst.Qubits {
			if g := owner[q]; g != nil {
				candSet[g] = true
			}
		}
		cands := make([]*bigGroup, 0, len(candSet))
		for g := range candSet {
			cands = append(cands, g)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].gates[0] < cands[j].gates[0] })

		joinable := func(gs []*bigGroup) bool {
			union := map[int]bool{}
			for _, q := range inst.Qubits {
				union[q] = true
			}
			for _, g := range gs {
				for q := range g.qubits {
					union[q] = true
				}
			}
			if len(union) > maxQubits {
				return false
			}
			for _, g := range gs {
				for _, q := range inst.Qubits {
					if g.qubits[q] && owner[q] != g {
						return false
					}
				}
			}
			if len(gs) == 2 {
				for q := range gs[0].qubits {
					if gs[1].qubits[q] {
						return false
					}
				}
			}
			return true
		}

		var target *bigGroup
		switch {
		case len(cands) == 2 && joinable(cands):
			a, b := cands[0], cands[1]
			a.gates = append(a.gates, b.gates...)
			sort.Ints(a.gates)
			for q := range b.qubits {
				a.qubits[q] = true
			}
			for q, g := range owner {
				if g == b {
					owner[q] = a
				}
			}
			for i, g := range groups {
				if g == b {
					groups = append(groups[:i], groups[i+1:]...)
					break
				}
			}
			target = a
		case len(cands) >= 1:
			for _, g := range cands {
				if joinable([]*bigGroup{g}) {
					target = g
					break
				}
			}
		}
		if target == nil {
			target = &bigGroup{qubits: map[int]bool{}}
			groups = append(groups, target)
		}
		target.gates = append(target.gates, gi)
		for _, q := range inst.Qubits {
			target.qubits[q] = true
			owner[q] = target
		}
	}

	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g.gates)
		out = append(out, g.gates)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func layerDivideRef(dag *circuit.DAG, big [][]int, maxLayers int) [][]int {
	var out [][]int
	for _, grp := range big {
		if len(grp) == 0 {
			continue
		}
		start := dag.Depth[grp[0]]
		for _, gi := range grp {
			if dag.Depth[gi] < start {
				start = dag.Depth[gi]
			}
		}
		byWindow := map[int][]int{}
		maxW := 0
		for _, gi := range grp {
			w := (dag.Depth[gi] - start) / maxLayers
			byWindow[w] = append(byWindow[w], gi)
			if w > maxW {
				maxW = w
			}
		}
		for w := 0; w <= maxW; w++ {
			if gates, ok := byWindow[w]; ok {
				sort.Ints(gates)
				out = append(out, gates)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// unitaryRef is the group unitary through a standalone local circuit.
func unitaryRef(g *Group) (*cmat.Matrix, error) { return g.LocalCircuit().Unitary() }

// referenceCircuit draws a program of 1..maxQubits qubits and 1..60 gates
// over one-, two- and three-qubit gates, Toffolis included.
func referenceCircuit(t *testing.T, rng *rand.Rand, maxQubits int) *circuit.Circuit {
	t.Helper()
	qubits := 1 + rng.Intn(maxQubits)
	names := []gate.Name{gate.H, gate.T, gate.X, gate.RZ, gate.U3}
	if qubits >= 2 {
		names = append(names, gate.CX, gate.CX, gate.CZ, gate.Swap)
	}
	if qubits >= 3 {
		names = append(names, gate.CCX)
	}
	c := circuit.New(qubits)
	for n := 1 + rng.Intn(60); n > 0; n-- {
		name := names[rng.Intn(len(names))]
		spec, _ := gate.Lookup(name)
		params := make([]float64, spec.Params)
		for i := range params {
			params[i] = rng.Float64() * 2 * math.Pi
		}
		c.MustAppend(name, rng.Perm(qubits)[:spec.Qubits], params...)
	}
	return c
}

// TestDivideMatchesReference compares Divide with the map-based model on
// thousands of seeded programs: logical ones with Toffolis kept whole,
// and physical ones routed onto Melbourne, a 3×3 grid and a 5-qubit
// chain, under qubit caps 1, 2 and 3 (cap 1 splits every two-qubit gate
// off; caps 2 and 3 exercise the owner rule on merges) and window depths
// 1 to 4.
func TestDivideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	devs := []*topology.Device{topology.Melbourne(), topology.Grid(3, 3), topology.Linear(5)}
	merges := 0
	for trial := 0; trial < 3000; trial++ {
		var c *circuit.Circuit
		if dev := devs[trial/2%len(devs)]; trial%2 == 0 {
			c = referenceCircuit(t, rng, 6)
		} else {
			mapped, err := mapping.Map(referenceCircuit(t, rng, dev.NumQubits).DecomposeCCX(), dev,
				mapping.Options{CrosstalkAware: trial%4 == 1})
			if err != nil {
				t.Fatal(err)
			}
			c = mapped.Mapped
		}
		pol := Policy{Name: "ref", MaxQubits: 1 + rng.Intn(3), MaxLayers: 1 + rng.Intn(4)}
		got, err := Divide(c, pol)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := divideRef(c, pol)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): Divide diverged from the reference model\n got %v\nwant %v",
				trial, pol, groupSummary(got), groupSummary(want))
		}
		for _, g := range got.Groups {
			if len(g.GateIndices) > 1 && len(g.Qubits) > 1 {
				merges++
			}
		}
	}
	if merges == 0 {
		t.Fatal("no multi-gate, multi-qubit group formed; the merge paths went untested")
	}
}

func groupSummary(gr *Grouping) string {
	s := ""
	for i, g := range gr.Groups {
		s += fmt.Sprintf("%d:%v@%v<%v ", i, g.GateIndices, g.Qubits, gr.Preds[i])
	}
	return s
}

// TestUnitaryMatchesReference compares Group.Unitary with the product of
// the group's standalone local circuit, bit for bit, on the groups of
// seeded programs under qubit caps 1 to 3 (dim 2, 4 and 8).
func TestUnitaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := map[int]int{}
	for trial := 0; trial < 1500; trial++ {
		c := referenceCircuit(t, rng, 5)
		gr, err := Divide(c, Policy{Name: "ref", MaxQubits: 1 + trial%3, MaxLayers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gr.Groups {
			got, err := g.Unitary()
			if err != nil {
				t.Fatal(err)
			}
			want, err := unitaryRef(g)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("trial %d: %dx%d unitary, want %dx%d", trial, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				if math.Float64bits(real(got.Data[i])) != math.Float64bits(real(want.Data[i])) ||
					math.Float64bits(imag(got.Data[i])) != math.Float64bits(imag(want.Data[i])) {
					t.Fatalf("trial %d: entry %d is %v, want %v", trial, i, got.Data[i], want.Data[i])
				}
			}
			dims[got.Rows]++
		}
	}
	for _, d := range []int{2, 4, 8} {
		if dims[d] == 0 {
			t.Errorf("no %dx%d group unitary compared", d, d)
		}
	}
}

// TestUnitaryQubitLimit keeps circuit.Unitary's 10-qubit guard and text.
func TestUnitaryQubitLimit(t *testing.T) {
	g := &Group{Qubits: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	_, err := g.Unitary()
	_, want := unitaryRef(g)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("11-qubit group: error %v, want %v", err, want)
	}
}
