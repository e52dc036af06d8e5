package accqoc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gate"
	"accqoc/internal/grouping"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// TestGoldenPrepare pins the whole compiler front end bit for bit: the
// mapper's layouts, swap, direction-fix and greedy-fallback counts, the
// mapped and physical gate lists, every group's gate indices and qubits,
// the group DAG and the crosstalk metric. The canonical-key golden in
// internal/grouping covers the keys built on top of this. The digests
// were recorded on amd64 before the front end's allocation-lean rewrite;
// a change that claims the same output must reproduce them unedited.
func TestGoldenPrepare(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may differ", runtime.GOARCH)
	}
	map3b2l := grouping.Policy{Name: "map3b2l", MaxQubits: 3, MaxLayers: 2, DecomposeSwap: true}
	dev := topology.Melbourne()
	suite := []struct {
		pol    grouping.Policy
		digest string
	}{
		{grouping.Map2b2l, "4e894e7238ff8fa7cbfa9b444e2b96a169b3792969bc10d0d890461158515ef4"},
		{grouping.Map2b3l, "d9704c3c16ddaad853a2ba3d3660dc1093cea625abdd2e692437b9efb3f75ccb"},
		{grouping.Map2b4l, "8db0a7d1c58004c55acebe2a6406e04e003eb759a34c25587bd43b0fd43f845c"},
		{grouping.Swap2b2l, "febf13809fd9fcd5b657ee01f6123ba13898c6ee0c8242b2b6ad34fcb0a607cf"},
		{grouping.Swap2b3l, "5898134b85a0317c6e67ab1d3c4db064d3374723f567611f8b363f3653d5747f"},
		{grouping.Swap2b4l, "722e2d83dd7a17d383c88e1aee39c1cd01665b9487d15cbb77cb20fd93e13e4a"},
		{map3b2l, "8af165c9e0e08d3f6ae55863415bcf3bc9801c483f7f36f028201dc90bc5210f"},
	}
	for _, w := range suite {
		c := New(Options{Device: dev, Policy: w.pol})
		h := sha256.New()
		for _, p := range goldenPrograms(t, dev) {
			prep, err := c.Prepare(p.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			hashPrepared(h, prep, dev)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.digest {
			t.Errorf("suite under %s: digest %s, want %s", w.pol.Name, got, w.digest)
		}
	}

	// Seeded random programs on small devices. A four-expansion budget
	// sends most routed layers to the greedy fallback, which routes one
	// pair at a time and can leave an earlier pair of the layer apart
	// again; such a program fails to map, and the digest records that it
	// failed.
	policies := append(append([]grouping.Policy(nil), grouping.Policies...), map3b2l)
	random := []struct {
		dev       *topology.Device
		aware     bool
		budget    int
		digest    string
		fallbacks int
		failed    int
	}{
		{topology.Grid(3, 3), true, 0, "a1eb56def3e6634a85ebdd055b13319606611a982eb7a8844bfab5ca81795461", 0, 0},
		{topology.Grid(3, 3), false, 0, "09d27006445062388acc4894a482a230f873524e3ba727a0ae42e7eb992d669d", 0, 0},
		{topology.Grid(3, 3), true, 4, "e27fbeb855c17863a6da62eedcc4b73b9a6e041527f712f11a6757b485a250fb", 17, 3},
		{topology.Linear(5), true, 0, "111555add0b12ce646adeb74b6646c08356135c561319ebec409ec782c1e216a", 0, 0},
		{topology.Linear(5), false, 0, "448a52b46d96f76d2149e4e2259ebe58c79485dc3a14ecc50de1d08129876a02", 0, 0},
		{topology.Linear(5), false, 4, "12edd6f0f44a76547a694189a1a453721cbbd3e0f86f3d31d9dd2f645f306d9d", 11, 0},
	}
	for i, w := range random {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		h := sha256.New()
		fallbacks, failed := 0, 0
		for k := 0; k < 60; k++ {
			opts := Options{Device: w.dev, Policy: policies[k%len(policies)], DisableCrosstalkAware: !w.aware}
			opts.Mapping.MaxExpansions = w.budget
			prep, err := New(opts).Prepare(randomProgram(t, rng, w.dev.NumQubits))
			if err != nil {
				failed++
				h.Write([]byte("failed"))
				continue
			}
			fallbacks += prep.MapResult.GreedyFallbacks
			hashPrepared(h, prep, w.dev)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.digest {
			t.Errorf("random case %d on %s (aware=%v, budget=%d): digest %s, want %s",
				i, w.dev.Name, w.aware, w.budget, got, w.digest)
		}
		if fallbacks != w.fallbacks || failed != w.failed {
			t.Errorf("random case %d: %d greedy fallbacks and %d failed programs, want %d and %d",
				i, fallbacks, failed, w.fallbacks, w.failed)
		}
	}
}

// goldenPrograms are the §VI-A suite programs that fit the device plus
// the servebench pool's random-mix program (its two named programs,
// 4gt4-v0 and qft_10, are suite members already).
func goldenPrograms(t testing.TB, dev *topology.Device) []*workload.Program {
	t.Helper()
	var out []*workload.Program
	for _, p := range workload.NamedSuite() {
		if p.Circuit.NumQubits <= dev.NumQubits {
			out = append(out, p)
		}
	}
	p, err := workload.FromSpec("random:6:300:1")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p)
}

// randomProgram draws a program of 2..maxQubits qubits and 10..69 gates
// from a mix of one-, two- and three-qubit gates (Toffolis need three
// qubits).
func randomProgram(t testing.TB, rng *rand.Rand, maxQubits int) *circuit.Circuit {
	t.Helper()
	qubits := 2 + rng.Intn(maxQubits-1)
	names := []gate.Name{gate.H, gate.T, gate.Tdg, gate.X, gate.RZ, gate.RX, gate.U3, gate.CX, gate.CX, gate.CZ, gate.Swap}
	if qubits >= 3 {
		names = append(names, gate.CCX)
	}
	counts := map[gate.Name]int{}
	for n := 10 + rng.Intn(60); n > 0; n-- {
		counts[names[rng.Intn(len(names))]]++
	}
	p, err := workload.Synthetic("random", qubits, rng.Int63(), counts)
	if err != nil {
		t.Fatal(err)
	}
	return p.Circuit
}

// hashPrepared feeds every output field of the front end into h, then
// the crosstalk metric of its DAG on dev (§VI-C), which the CLI reports.
func hashPrepared(h hash.Hash, p *Prepared, dev *topology.Device) {
	ints := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	list := func(vs []int) {
		ints(len(vs))
		ints(vs...)
	}
	gates := func(c *circuit.Circuit) {
		ints(c.NumQubits, len(c.Gates))
		for _, g := range c.Gates {
			h.Write([]byte(g.Name))
			list(g.Qubits)
			ints(len(g.Params))
			for _, x := range g.Params {
				ints(int(math.Float64bits(x)))
			}
		}
	}
	m := p.MapResult
	list(m.InitialLayout)
	list(m.FinalLayout)
	ints(m.SwapCount, m.DirectionFixes, m.GreedyFallbacks)
	gates(m.Mapped)
	gates(p.Physical)
	gr := p.Grouping
	ints(len(gr.Groups))
	for i, g := range gr.Groups {
		list(g.GateIndices)
		list(g.Qubits)
		list(gr.Preds[i])
		list(gr.Succs[i])
	}
	ints(crosstalk.MetricDAG(p.DAG, dev))
}
