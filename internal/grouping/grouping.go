// Package grouping implements the paper's gate-group generation: Algorithm 1
// (bit dividing — greedy merge along the DAG under a qubit-count constraint),
// Algorithm 2 (layer dividing — splitting big groups into depth windows), the
// 2bNl policy catalog of Table I, and group deduplication up to qubit
// permutation and global phase.
//
// Beyond the paper's pseudocode, the bit divider enforces a wire-interval
// rule (a group must occupy a contiguous run of gates on every wire it
// touches) so that every produced group is convex in the DAG and can be
// legally replaced by a single pulse.
package grouping

import (
	"fmt"
	"math/cmplx"
	"sort"
	"strconv"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

// Policy is a grouping configuration from the paper's 2bNl catalog
// (Table I): at most MaxQubits qubits and MaxLayers circuit layers per
// group. DecomposeSwap distinguishes the "map" policies (swap lowered to
// three CX before grouping) from the "swap" policies (swap kept native).
type Policy struct {
	Name          string
	MaxQubits     int
	MaxLayers     int
	DecomposeSwap bool
}

// The paper's six candidate policies (Table I).
var (
	Map2b2l  = Policy{Name: "map2b2l", MaxQubits: 2, MaxLayers: 2, DecomposeSwap: true}
	Map2b3l  = Policy{Name: "map2b3l", MaxQubits: 2, MaxLayers: 3, DecomposeSwap: true}
	Map2b4l  = Policy{Name: "map2b4l", MaxQubits: 2, MaxLayers: 4, DecomposeSwap: true}
	Swap2b2l = Policy{Name: "swap2b2l", MaxQubits: 2, MaxLayers: 2, DecomposeSwap: false}
	Swap2b3l = Policy{Name: "swap2b3l", MaxQubits: 2, MaxLayers: 3, DecomposeSwap: false}
	Swap2b4l = Policy{Name: "swap2b4l", MaxQubits: 2, MaxLayers: 4, DecomposeSwap: false}
)

// Three-qubit extensions beyond Table I: same bitDivide/layerDivide
// machinery with the qubit cap raised to 3, so neighbouring two-qubit
// groups on a shared wire merge into dim-8 groups. GRAPE training cost per
// group rises steeply with dimension (the paper's central tradeoff), so
// these are opt-in — servers and CLIs only accept them behind an explicit
// flag, and they resolve through PolicyByNameExtended, never PolicyByName.
var (
	Map3b2l = Policy{Name: "map3b2l", MaxQubits: 3, MaxLayers: 2, DecomposeSwap: true}
	Map3b3l = Policy{Name: "map3b3l", MaxQubits: 3, MaxLayers: 3, DecomposeSwap: true}
)

// Policies lists all six candidates in Table I order.
var Policies = []Policy{Map2b2l, Map2b3l, Map2b4l, Swap2b2l, Swap2b3l, Swap2b4l}

// Policies3Q lists the opt-in three-qubit policies.
var Policies3Q = []Policy{Map3b2l, Map3b3l}

// PolicyByName returns the named Table I policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("grouping: unknown policy %q", name)
}

// PolicyByNameExtended resolves Table I policies plus the opt-in 3-qubit
// set. Callers gate this behind an explicit user flag: 3Q groups train
// dim-8 unitaries and cost far more GRAPE time per group.
func PolicyByNameExtended(name string) (Policy, error) {
	if p, err := PolicyByName(name); err == nil {
		return p, nil
	}
	for _, p := range Policies3Q {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("grouping: unknown policy %q (known: Table I 2b policies, plus 3Q: map3b2l, map3b3l)", name)
}

// Group is one gate group: a convex set of gates acting on at most
// MaxQubits wires, spanning at most MaxLayers layers.
type Group struct {
	// Qubits are the global (physical) qubits the group touches, sorted.
	Qubits []int
	// Gates are the member gates in program order, on global qubits.
	Gates []gate.Instance
	// GateIndices are the positions of the member gates in the source
	// circuit, in program order.
	GateIndices []int
}

// LocalCircuit re-indexes the group onto wires 0..k−1 (sorted global order)
// and returns it as a standalone circuit.
func (g *Group) LocalCircuit() *circuit.Circuit {
	remap := make(map[int]int, len(g.Qubits))
	for i, q := range g.Qubits {
		remap[q] = i
	}
	c := circuit.New(len(g.Qubits))
	for _, inst := range g.Gates {
		local := make([]int, len(inst.Qubits))
		for i, q := range inst.Qubits {
			local[i] = remap[q]
		}
		c.MustAppend(inst.Name, local, inst.Params...)
	}
	return c
}

// Unitary returns the group's 2^k × 2^k matrix.
func (g *Group) Unitary() (*cmat.Matrix, error) {
	return g.LocalCircuit().Unitary()
}

// Key returns a canonical fingerprint of the group's unitary, invariant
// under global phase and (for two-qubit groups) qubit permutation — the
// paper's deduplication rule (§IV-C).
func (g *Group) Key() (string, error) {
	u, err := g.Unitary()
	if err != nil {
		return "", err
	}
	return MatrixKey(u), nil
}

// MatrixKey canonicalizes a unitary under global phase and qubit
// permutation (for 4×4 matrices) and renders it as a quantized string.
func MatrixKey(u *cmat.Matrix) string {
	k, _ := CanonicalOrientation(u)
	return k
}

// CanonicalOrientation returns the canonical key of a unitary and whether
// the canonical form is the qubit-swapped orientation. When swapped is
// true, a pulse trained for the canonical form drives this group with its
// per-qubit control channels exchanged.
//
// The key text is a byte-stable contract: library snapshots, the usage
// ledger and dedup counts store it. Both orientations render into one
// buffer; the swapped one reads u through the index permutation swap2.
func CanonicalOrientation(u *cmat.Matrix) (key string, swapped bool) {
	var arr [1200]byte // both 4×4 orientations, or one 8×8 key
	b := appendPhaseCanonical(arr[:0], u.Rows, u.Cols, u.Data)
	if u.Rows == 4 && u.Cols == 4 {
		var sw [16]complex128
		for t, s := range swap2 {
			sw[t] = u.Data[s]
		}
		n := len(b)
		b = appendPhaseCanonical(b, 4, 4, sw[:])
		if string(b[n:]) < string(b[:n]) {
			return string(b[n:]), true
		}
		b = b[:n]
	}
	return string(b), false
}

// swap2 relabels the two qubits of a 4×4 matrix: entry t of S·U·S, for
// the 4×4 SWAP S, is entry swap2[t] of U, since S exchanges the basis
// states |01⟩ and |10⟩ (rows and columns 1 and 2).
var swap2 = [16]int{
	0, 2, 1, 3,
	8, 10, 9, 11,
	4, 6, 5, 7,
	12, 14, 13, 15,
}

// appendPhaseCanonical appends the key text of a rows×cols matrix with
// row-major entries data: the global phase is fixed so the
// largest-magnitude entry is real positive, then every entry is rounded
// half away from zero to 1e-5.
func appendPhaseCanonical(b []byte, rows, cols int, data []complex128) []byte {
	// Use the largest-magnitude entry as the phase reference: stable under
	// small numerical noise.
	var ref complex128
	var refAbs float64
	for _, v := range data {
		if a := cmplx.Abs(v); a > refAbs+1e-12 {
			refAbs, ref = a, v
		}
	}
	phase := complex(1, 0)
	if refAbs > 0 {
		phase = cmplx.Conj(ref) / complex(refAbs, 0)
	}
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(cols), 10)
	b = append(b, ':')
	for _, v := range data {
		w := v * phase
		b = appendQuant(b, real(w))
		b = append(b, ',')
		b = appendQuant(b, imag(w))
		b = append(b, ';')
	}
	return b
}

// appendQuant appends x rounded half away from zero to five decimals, as
// sign, integer part, '.' and five zero-padded digits of the scaled
// integer k. For |x| below 1e10 (unitary entries are at most 1) these are
// the bytes "%.5f" prints for k/1e5; a zero never carries a sign.
func appendQuant(b []byte, x float64) []byte {
	k := int64(x*1e5 + copysignHalf(x))
	if k < 0 {
		b = append(b, '-')
		k = -k
	}
	b = strconv.AppendInt(b, k/1e5, 10)
	f := k % 1e5
	return append(b, '.', byte('0'+f/1e4), byte('0'+f/1e3%10), byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
}

func copysignHalf(x float64) float64 {
	if x < 0 {
		return -0.5
	}
	return 0.5
}

// Grouping is the result of dividing a circuit: group occurrences in
// topological order plus the restructured group-level DAG (the input to
// Algorithm 3).
type Grouping struct {
	Policy Policy
	Groups []*Group
	// Preds[i] lists group indices that must complete before group i.
	Preds [][]int
	// Succs is the reverse adjacency.
	Succs [][]int
}

// Divide runs Algorithm 1 (bit dividing) then Algorithm 2 (layer dividing)
// on the circuit and builds the group DAG. The circuit should already be
// mapped (and swaps decomposed when the policy says so — see
// ApplyPolicy in the pipeline packages).
func Divide(c *circuit.Circuit, pol Policy) (*Grouping, error) {
	if pol.MaxQubits < 1 || pol.MaxLayers < 1 {
		return nil, fmt.Errorf("grouping: invalid policy %+v", pol)
	}
	dag := circuit.BuildDAG(c)
	big := bitDivide(c, dag, pol.MaxQubits)
	chunks := layerDivide(dag, big, pol.MaxLayers)

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
	// Group DAG from gate DAG.
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

// bitDivide is Algorithm 1: greedy merge of each gate with its
// predecessors' groups in topological order, subject to the qubit budget
// and the wire-interval (convexity) rule. It returns big groups as slices
// of gate indices in program order.
func bitDivide(c *circuit.Circuit, dag *circuit.DAG, maxQubits int) [][]int {
	type bigGroup struct {
		gates  []int
		qubits map[int]bool
	}
	var groups []*bigGroup
	owner := map[int]*bigGroup{} // wire → group holding the last gate on it

	for gi, inst := range c.Gates {
		// Candidate groups: owners of the wires this gate reads.
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
		// Deterministic candidate order: by first gate index.
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
			// Wire-interval rule: for every wire of this gate that a
			// candidate already uses, that candidate must still own the
			// wire (no foreign gate interleaved).
			for _, g := range gs {
				for _, q := range inst.Qubits {
					if g.qubits[q] && owner[q] != g {
						return false
					}
				}
			}
			// Merging two groups requires disjoint wire sets (each wire
			// owned by exactly one of them).
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
			// Merge the two predecessor groups (Algorithm 1 line 5–6).
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
			// Try each candidate singly, in order (line 7–9).
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
	// Deterministic order: by first gate index.
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// layerDivide is Algorithm 2: splits each big group into windows of at most
// maxLayers consecutive global depths, measured from the group's shallowest
// gate.
func layerDivide(dag *circuit.DAG, big [][]int, maxLayers int) [][]int {
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

// UniqueGroup is a deduplicated group with its occurrence count.
type UniqueGroup struct {
	Key       string
	Group     *Group // representative occurrence
	Count     int
	NumQubits int
}

// Deduplicate collapses group occurrences by canonical matrix key and
// counts frequencies, most frequent first (§IV-C, §IV-G).
func Deduplicate(groups []*Group) ([]*UniqueGroup, error) {
	keys := make([]string, len(groups))
	for i, g := range groups {
		k, err := g.Key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	out := DeduplicateKeyed(groups, keys)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out, nil
}

// DeduplicateKeyed collapses group occurrences using precomputed canonical
// keys (keys[i] belongs to groups[i]), preserving first-occurrence order.
// Callers that already paid for the unitaries (e.g. the serving path) use
// this to avoid recomputing them.
func DeduplicateKeyed(groups []*Group, keys []string) []*UniqueGroup {
	byKey := map[string]*UniqueGroup{}
	var order []string
	for i, g := range groups {
		k := keys[i]
		if u, ok := byKey[k]; ok {
			u.Count++
			continue
		}
		byKey[k] = &UniqueGroup{Key: k, Group: g, Count: 1, NumQubits: len(g.Qubits)}
		order = append(order, k)
	}
	out := make([]*UniqueGroup, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}
