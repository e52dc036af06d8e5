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
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
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

// Policies lists all six candidates in Table I order.
var Policies = []Policy{Map2b2l, Map2b3l, Map2b4l, Swap2b2l, Swap2b3l, Swap2b4l}

// PolicyByName returns the named Table I policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("grouping: unknown policy %q", name)
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

// maxUnitaryQubits bounds Unitary against accidental exponential
// blow-ups, as circuit.Unitary does.
const maxUnitaryQubits = 10

// Unitary returns the group's 2^k × 2^k matrix: the product, right to
// left in program order, of each member gate embedded on the group's
// local wires (sorted global order). It computes the bits of
// LocalCircuit().Unitary() — the same embedding and the same cmat
// kernels in the same order — in two scratch matrices and the result.
func (g *Group) Unitary() (*cmat.Matrix, error) {
	n := len(g.Qubits)
	if n > maxUnitaryQubits {
		return nil, fmt.Errorf("circuit: Unitary limited to %d qubits, have %d", maxUnitaryQubits, n)
	}
	dim := 1 << n
	acc, emb, next := cmat.Identity(dim), cmat.New(dim, dim), cmat.New(dim, dim)
	var arr [3]int
	for _, inst := range g.Gates {
		u, err := inst.Unitary()
		if err != nil {
			return nil, err
		}
		local := arr[:0]
		for _, q := range inst.Qubits {
			local = append(local, localWire(g.Qubits, q))
		}
		gate.EmbedInto(emb, u, local, n)
		cmat.MulInto(next, emb, acc)
		acc, next = next, acc
	}
	return acc, nil
}

// localWire is q's position in the sorted wire list qubits.
func localWire(qubits []int, q int) int {
	for i, w := range qubits {
		if w == q {
			return i
		}
	}
	panic(fmt.Sprintf("grouping: gate qubit %d is not a group wire %v", q, qubits))
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

// CanonicalKeys is the one canonical-key pass over group occurrences: it
// returns every occurrence's key and orientation flag, exactly
// CanonicalOrientation of its Unitary, but builds the unitary and runs
// the orientation search only for the first occurrence of each distinct
// gate content (see appendContent); later occurrences copy its result.
// It stops at the first occurrence whose unitary cannot be built.
func CanonicalKeys(groups []*Group) (keys []string, swapped []bool, err error) {
	return canonicalKeys(groups, (*Group).Unitary)
}

// canonicalKeys is CanonicalKeys building each unitary with unitary, so
// that tests can count the builds.
func canonicalKeys(groups []*Group, unitary func(*Group) (*cmat.Matrix, error)) (keys []string, swapped []bool, err error) {
	keys = make([]string, len(groups))
	swapped = make([]bool, len(groups))
	first := map[string]int{} // gate content → its first occurrence
	var arr [512]byte
	for i, g := range groups {
		content, ok := appendContent(arr[:0], g)
		if ok {
			if j, seen := first[string(content)]; seen {
				keys[i], swapped[i] = keys[j], swapped[j]
				continue
			}
		}
		u, uerr := unitary(g)
		if uerr != nil {
			return nil, nil, uerr
		}
		keys[i], swapped[i] = CanonicalOrientation(u)
		if ok {
			first[string(content)] = i
		}
	}
	return keys, swapped, nil
}

// appendContent appends an injective encoding of everything Unitary reads
// from g: the wire count, then for each gate its name, its local wires in
// operand order and the bit patterns of its parameters, each list
// prefixed with its length. Groups of equal content therefore have
// bit-identical unitaries; rz(0) and rz(-0) differ in content. It reports
// false, leaving g to Unitary's own checks, when Unitary would refuse the
// wire count or a gate operand is not a group wire.
func appendContent(b []byte, g *Group) ([]byte, bool) {
	n := len(g.Qubits)
	if n > maxUnitaryQubits {
		return b, false
	}
	b = append(b, byte(n))
	for _, inst := range g.Gates {
		b = binary.AppendUvarint(b, uint64(len(inst.Name)))
		b = append(b, inst.Name...)
		b = binary.AppendUvarint(b, uint64(len(inst.Qubits)))
		for _, q := range inst.Qubits {
			w := slices.Index(g.Qubits, q)
			if w < 0 {
				return b, false
			}
			b = append(b, byte(w)) // w < n ≤ maxUnitaryQubits
		}
		b = binary.AppendUvarint(b, uint64(len(inst.Params)))
		for _, p := range inst.Params {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
	}
	return b, true
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
	return DivideDAG(circuit.BuildDAG(c), pol)
}

// DivideDAG is Divide over a circuit whose dependency DAG the caller has
// built already and shares with its other passes.
func DivideDAG(dag *circuit.DAG, pol Policy) (*Grouping, error) {
	if pol.MaxQubits < 1 || pol.MaxLayers < 1 {
		return nil, fmt.Errorf("grouping: invalid policy %+v", pol)
	}
	c := dag.Circuit
	chunks := layerDivide(dag, bitDivide(c, pol.MaxQubits), pol.MaxLayers)

	// The groups, their gate lists and their wire lists each share one
	// array. A group's wires are at most its gates' operands.
	n := len(chunks)
	gr := &Grouping{Policy: pol, Groups: make([]*Group, n)}
	groups := make([]Group, n)
	insts := make([]gate.Instance, len(c.Gates))
	refs := 0
	for _, g := range c.Gates {
		refs += len(g.Qubits)
	}
	wires := make([]int, 0, refs)
	gateToGroup := make([]int, len(c.Gates))
	stamp := make([]int, max(c.NumQubits, n)) // wire, then group → last id+1 that saw it
	for id, chunk := range chunks {
		grp := &groups[id]
		grp.Gates, insts = insts[:len(chunk):len(chunk)], insts[len(chunk):]
		grp.GateIndices = chunk
		start := len(wires)
		for i, gi := range chunk {
			inst := c.Gates[gi]
			grp.Gates[i] = inst
			gateToGroup[gi] = id
			for _, q := range inst.Qubits {
				if stamp[q] != id+1 {
					stamp[q] = id + 1
					wires = append(wires, q)
				}
			}
		}
		grp.Qubits = wires[start:len(wires):len(wires)]
		sort.Ints(grp.Qubits)
		gr.Groups[id] = grp
	}
	// Group DAG from gate DAG: group i's predecessors are the groups of
	// its gates' predecessors, once each. They share one array, as do the
	// successor lists, each sized to its count first; filling successors
	// in group order keeps them sorted. Empty lists stay nil.
	clear(stamp)
	gr.Preds = make([][]int, n)
	gr.Succs = make([][]int, n)
	edges := 0
	for _, ps := range dag.Preds {
		edges += len(ps)
	}
	preds := make([]int, 0, edges)
	counts := make([]int, n)
	for id, chunk := range chunks {
		start := len(preds)
		for _, gi := range chunk {
			for _, p := range dag.Preds[gi] {
				if pg := gateToGroup[p]; pg != id && stamp[pg] != id+1 {
					stamp[pg] = id + 1
					preds = append(preds, pg)
					counts[pg]++
				}
			}
		}
		if len(preds) > start {
			gr.Preds[id] = preds[start:len(preds):len(preds)]
			sort.Ints(gr.Preds[id])
		}
	}
	succs := make([]int, len(preds))
	for p, k := range counts {
		if k > 0 {
			gr.Succs[p], succs = succs[:0:k], succs[k:]
		}
	}
	for id, ps := range gr.Preds {
		for _, p := range ps {
			gr.Succs[p] = append(gr.Succs[p], id)
		}
	}
	return gr, nil
}

// bitDivide is Algorithm 1: greedy merge of each gate with its
// predecessors' groups in topological order, subject to the qubit budget
// and the wire-interval (convexity) rule. It returns big groups as slices
// of gate indices in program order.
func bitDivide(c *circuit.Circuit, maxQubits int) [][]int {
	type bigGroup struct {
		gates []int // member gates in program order
		wires []int // the wires the group touches
		dead  bool  // merged into another group
	}
	var groups []bigGroup
	touches := func(g, q int) bool { return slices.Contains(groups[g].wires, q) }
	owner := make([]int, c.NumQubits) // wire → group holding the last gate on it, or -1
	for q := range owner {
		owner[q] = -1
	}
	mark, stamp := make([]int, c.NumQubits), 0

	// joinable reports whether a gate on qubits qs may join the groups gs.
	joinable := func(qs []int, gs []int) bool {
		stamp++
		union := 0
		count := func(q int) {
			if mark[q] != stamp {
				mark[q] = stamp
				union++
			}
		}
		for _, q := range qs {
			count(q)
		}
		for _, g := range gs {
			for _, q := range groups[g].wires {
				count(q)
			}
		}
		if union > maxQubits {
			return false
		}
		// Wire-interval rule: for every wire of this gate that a
		// candidate already uses, that candidate must still own the
		// wire (no foreign gate interleaved).
		for _, g := range gs {
			for _, q := range qs {
				if touches(g, q) && owner[q] != g {
					return false
				}
			}
		}
		// Merging two groups requires disjoint wire sets (each wire
		// owned by exactly one of them).
		if len(gs) == 2 {
			for _, q := range groups[gs[0]].wires {
				if touches(gs[1], q) {
					return false
				}
			}
		}
		return true
	}

	for gi, inst := range c.Gates {
		// Candidate groups: owners of the wires this gate reads, ordered
		// by first gate index.
		var arr [3]int
		cands := arr[:0]
		for _, q := range inst.Qubits {
			if g := owner[q]; g >= 0 && !slices.Contains(cands, g) {
				cands = append(cands, g)
			}
		}
		slices.SortFunc(cands, func(a, b int) int { return cmp.Compare(groups[a].gates[0], groups[b].gates[0]) })

		target := -1
		switch {
		case len(cands) == 2 && joinable(inst.Qubits, cands):
			// Merge the two predecessor groups (Algorithm 1 line 5–6).
			// Only the wires b still owns move to a: a wire b touched
			// earlier may have passed to a third group since.
			a, b := &groups[cands[0]], &groups[cands[1]]
			a.gates = append(a.gates, b.gates...)
			sort.Ints(a.gates)
			a.wires = append(a.wires, b.wires...)
			for _, q := range b.wires {
				if owner[q] == cands[1] {
					owner[q] = cands[0]
				}
			}
			b.dead = true
			target = cands[0]
		case len(cands) >= 1:
			// Try each candidate singly, in order (line 7–9).
			for i := range cands {
				if joinable(inst.Qubits, cands[i:i+1]) {
					target = cands[i]
					break
				}
			}
		}
		if target < 0 {
			target = len(groups)
			groups = append(groups, bigGroup{wires: make([]int, 0, min(maxQubits, c.NumQubits))})
		}
		g := &groups[target]
		g.gates = append(g.gates, gi)
		for _, q := range inst.Qubits {
			if !slices.Contains(g.wires, q) {
				g.wires = append(g.wires, q)
			}
			owner[q] = target
		}
	}

	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		if !g.dead {
			out = append(out, g.gates)
		}
	}
	return out
}

// layerDivide is Algorithm 2: splits each big group into windows of at most
// maxLayers consecutive global depths, measured from the group's shallowest
// gate. It reorders each big group in place and returns the windows as
// subslices of them, ordered by first gate.
func layerDivide(dag *circuit.DAG, big [][]int, maxLayers int) [][]int {
	out := make([][]int, 0, len(big))
	for _, grp := range big {
		if len(grp) == 0 {
			continue
		}
		start := dag.Depth[grp[0]]
		for _, gi := range grp {
			start = min(start, dag.Depth[gi])
		}
		window := func(gi int) int { return (dag.Depth[gi] - start) / maxLayers }
		// A stable sort by window keeps each window's gates in program
		// order.
		slices.SortStableFunc(grp, func(a, b int) int { return cmp.Compare(window(a), window(b)) })
		for len(grp) > 0 {
			n := 1
			for n < len(grp) && window(grp[n]) == window(grp[0]) {
				n++
			}
			out = append(out, grp[:n:n])
			grp = grp[n:]
		}
	}
	slices.SortFunc(out, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
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
	keys, _, err := CanonicalKeys(groups)
	if err != nil {
		return nil, err
	}
	out := DeduplicateKeyed(groups, keys)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out, nil
}

// DeduplicateKeyed collapses group occurrences using precomputed canonical
// keys (keys[i] belongs to groups[i]), preserving first-occurrence order.
// Callers that already hold CanonicalKeys' keys (the plan's key pass) use
// this to avoid a second pass.
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
