package grouping

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/mapping"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// countingUnitary is Group.Unitary counting its calls in *builds.
func countingUnitary(builds *int) func(*Group) (*cmat.Matrix, error) {
	return func(g *Group) (*cmat.Matrix, error) {
		*builds++
		return g.Unitary()
	}
}

// checkKeysMatchReference runs the shared key pass over groups and
// compares every occurrence's key and flag, bit for bit, with
// CanonicalOrientation of the occurrence's own unitary. It returns the
// number of unitaries the pass built.
func checkKeysMatchReference(t *testing.T, label string, groups []*Group) int {
	t.Helper()
	builds := 0
	keys, swapped, err := canonicalKeys(groups, countingUnitary(&builds))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, g := range groups {
		u, err := g.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		key, sw := CanonicalOrientation(u)
		if keys[i] != key || swapped[i] != sw {
			t.Fatalf("%s: occurrence %d (%v on %v): key %.40q swapped %t, want %.40q swapped %t",
				label, i, g.Gates, g.Qubits, keys[i], swapped[i], key, sw)
		}
	}
	return builds
}

// distinctContents counts the distinct gate contents among groups.
func distinctContents(t *testing.T, groups []*Group) int {
	t.Helper()
	seen := map[string]bool{}
	for _, g := range groups {
		seen[string(mustContent(t, g))] = true
	}
	return len(seen)
}

// TestCanonicalKeysMatchesReference checks the shared key pass against a
// unitary per occurrence on seeded programs routed onto Melbourne, a 3×3
// grid and a 5-qubit chain, under map2b4l, swap2b4l and a 3-qubit policy
// literal, and checks that it builds one unitary per distinct content.
func TestCanonicalKeysMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	devs := []*topology.Device{topology.Melbourne(), topology.Grid(3, 3), topology.Linear(5)}
	pols := []Policy{Map2b4l, Swap2b4l, {Name: "map3b2l", MaxQubits: 3, MaxLayers: 2, DecomposeSwap: true}}
	occurrences, builds, shared := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		dev := devs[trial%len(devs)]
		mapped, err := mapping.Map(referenceCircuit(t, rng, dev.NumQubits).DecomposeCCX(), dev, mapping.Options{CrosstalkAware: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range pols {
			phys := mapped.Mapped
			if pol.DecomposeSwap {
				if phys, err = mapping.DecomposeSwaps(phys, dev); err != nil {
					t.Fatal(err)
				}
			}
			gr, err := Divide(phys, pol)
			if err != nil {
				t.Fatal(err)
			}
			n := checkKeysMatchReference(t, pol.Name, gr.Groups)
			if want := distinctContents(t, gr.Groups); n != want {
				t.Fatalf("trial %d (%s): %d unitary builds for %d distinct contents", trial, pol.Name, n, want)
			}
			occurrences += len(gr.Groups)
			builds += n
			if n < len(gr.Groups) {
				shared++
			}
		}
	}
	if shared == 0 || builds >= occurrences {
		t.Fatalf("%d builds for %d occurrences: no occurrence reused another's key", builds, occurrences)
	}
}

// TestCanonicalKeysPoolBuilds pins the unitary builds of one pass over
// servebench's warm pool (4gt4-v0, qft_10 and random:6:300:1 on Melbourne
// under map2b4l, one key pass per program as a request runs it): 930
// occurrences, 284 builds.
func TestCanonicalKeysPoolBuilds(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pool's groups are recorded on amd64; %s may differ", runtime.GOARCH)
	}
	dev := topology.Melbourne()
	occurrences, builds := 0, 0
	for _, spec := range []string{"named:4gt4-v0", "named:qft_10", "random:6:300:1"} {
		p, err := workload.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := Divide(physical(t, p.Circuit, dev, Map2b4l), Map2b4l)
		if err != nil {
			t.Fatal(err)
		}
		occurrences += len(gr.Groups)
		builds += checkKeysMatchReference(t, spec, gr.Groups)
	}
	if occurrences != 930 || builds != 284 {
		t.Fatalf("pool pass: %d occurrences, %d unitary builds; want 930, 284", occurrences, builds)
	}
}

// TestCanonicalKeysContent feeds the key pass hand-built groups whose
// gate contents differ only in what the encoding must keep apart — a
// zero's sign, one ULP of an angle, operand order, the wire count, and
// gates that differ only by name — plus one content repeated on other
// physical wires, which must reuse the first occurrence's unitary.
func TestCanonicalKeysContent(t *testing.T) {
	one := func(qubits []int, name gate.Name, wires []int, params ...float64) *Group {
		return &Group{Qubits: qubits, Gates: []gate.Instance{gate.MustInstance(name, wires, params...)}}
	}
	angle := 0.7
	pairs := []struct {
		name string
		a, b *Group
	}{
		{"rz(0) vs rz(-0)", one([]int{4}, gate.RZ, []int{4}, 0), one([]int{4}, gate.RZ, []int{4}, math.Copysign(0, -1))},
		{"one ULP", one([]int{4}, gate.RZ, []int{4}, angle), one([]int{4}, gate.RZ, []int{4}, math.Nextafter(angle, 1))},
		{"cx(0,1) vs cx(1,0)", one([]int{2, 3}, gate.CX, []int{2, 3}), one([]int{2, 3}, gate.CX, []int{3, 2})},
		{"wire count", one([]int{5}, gate.H, []int{5}), one([]int{5, 6}, gate.H, []int{5})},
		{"s vs sdg", one([]int{1}, gate.S, []int{1}), one([]int{1}, gate.Sdg, []int{1})},
		{"s vs swap", one([]int{0, 1}, gate.S, []int{0}), one([]int{0, 1}, gate.Swap, []int{0, 1})},
		{"t vs tdg", one([]int{1}, gate.T, []int{1}), one([]int{1}, gate.Tdg, []int{1})},
	}
	var groups []*Group
	for _, p := range pairs {
		ca, oka := appendContent(nil, p.a)
		cb, okb := appendContent(nil, p.b)
		if !oka || !okb || bytes.Equal(ca, cb) {
			t.Errorf("%s: contents %x (%t) and %x (%t) must both exist and differ", p.name, ca, oka, cb, okb)
		}
		groups = append(groups, p.a, p.b)
	}
	// The first pair's content again on other physical wires.
	moved := one([]int{9}, gate.RZ, []int{9}, 0)
	if ca, _ := appendContent(nil, pairs[0].a); !bytes.Equal(ca, mustContent(t, moved)) {
		t.Error("rz(0) on wire 9 has another content than rz(0) on wire 4")
	}
	groups = append(groups, moved)
	if builds := checkKeysMatchReference(t, "hand-built", groups); builds != 2*len(pairs) {
		t.Fatalf("%d unitary builds for %d distinct contents", builds, 2*len(pairs))
	}
	// A group Unitary refuses is left to Unitary, not keyed by content.
	if _, ok := appendContent(nil, &Group{Qubits: []int{0}, Gates: []gate.Instance{gate.MustInstance(gate.H, []int{1})}}); ok {
		t.Error("a gate on a foreign wire was given a content")
	}
	wide := &Group{Qubits: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if _, ok := appendContent(nil, wide); ok {
		t.Error("an 11-wire group was given a content")
	}
	if _, _, err := CanonicalKeys([]*Group{wide}); err == nil {
		t.Error("the key pass keyed an 11-wire group")
	}
}

func mustContent(t *testing.T, g *Group) []byte {
	t.Helper()
	c, ok := appendContent(nil, g)
	if !ok {
		t.Fatalf("group %v on %v has no content", g.Gates, g.Qubits)
	}
	return c
}
