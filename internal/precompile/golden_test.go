package precompile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/pulse"
)

// Golden bit-identity pins for the MST training planner and executor. The
// values were measured with fast budgets before Build, ParallelBuild and
// the serving path shared one planner; a change to the planner, the
// seeding rule or the training unit that claims to compute the same thing
// must reproduce them exactly. They were recorded on amd64; other
// architectures may fuse multiply-adds and legitimately differ in the
// last bits.

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// ampHash is the first 64 bits of a SHA-256 over the little-endian
// Float64bits of every amplitude, channel by channel.
func ampHash(p *pulse.Pulse) string {
	h := sha256.New()
	var buf [8]byte
	for _, ch := range p.Amps {
		for _, a := range ch {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenCategory is a mixed 1Q/2Q category under a 2Q bracket too tight
// for a SWAP (its speed limit is ≈ 937 ns), so one group fails. The 1Q
// class holds an MST edge above WarmThreshold (rz(3.0) hangs off an
// rz(0.4..0.5) parent at a trace distance near 0.7: the latency hint
// transfers, the pulse does not). names maps each key to a short label
// for the pins.
func goldenCategory(t *testing.T) ([]*grouping.UniqueGroup, map[string]string, Config) {
	t.Helper()
	one := func(name gate.Name, theta float64) *grouping.Group {
		return &grouping.Group{Qubits: []int{0}, Gates: []gate.Instance{gate.MustInstance(name, []int{0}, theta)}}
	}
	two := func(gs ...gate.Instance) *grouping.Group {
		return &grouping.Group{Qubits: []int{0, 1}, Gates: gs}
	}
	labels := []string{"rz0.4", "rz0.5", "rz3.0", "cx", "cx+rz0.2", "rz⊗rz", "swap"}
	groups := []*grouping.Group{
		one(gate.RZ, 0.4),
		one(gate.RZ, 0.5),
		one(gate.RZ, 3.0),
		two(gate.MustInstance(gate.CX, []int{0, 1})),
		two(gate.MustInstance(gate.CX, []int{0, 1}), gate.MustInstance(gate.RZ, []int{1}, 0.2)),
		two(gate.MustInstance(gate.RZ, []int{0}, 0.3), gate.MustInstance(gate.RZ, []int{1}, 0.2)),
		two(gate.MustInstance(gate.CX, []int{0, 1}), gate.MustInstance(gate.CX, []int{1, 0}), gate.MustInstance(gate.CX, []int{0, 1})),
	}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != len(groups) {
		t.Fatalf("category deduplicated to %d of %d groups", len(uniq), len(groups))
	}
	names := map[string]string{}
	for i, g := range groups {
		k, kerr := g.Key()
		if kerr != nil {
			t.Fatal(kerr)
		}
		names[k] = labels[i]
	}
	cfg := Config{
		Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 150, Seed: 3},
		Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
		Search2Q: grape.SearchOptions{MinDuration: 100, MaxDuration: 500, Resolution: 100},
	}
	return uniq, names, cfg
}

// entryPins renders a library's entries, one line per entry, sorted by
// label: iterations, latency, infidelity bits and an amplitude hash.
func entryPins(entries map[string]*Entry, names map[string]string) string {
	lines := make([]string, 0, len(entries))
	for k, e := range entries {
		lines = append(lines, fmt.Sprintf("%s iters=%d latency=%v inf=%016x amps=%s",
			names[k], e.Iterations, e.LatencyNs, math.Float64bits(e.Infidelity), ampHash(e.Pulse)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// statPins renders a build's totals, failures and per-group sequence.
func statPins(st *BuildStats, names map[string]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d failed=[", st.TotalIterations)
	for i, k := range st.Failed {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(names[k])
	}
	b.WriteString("]")
	for _, g := range st.PerGroup {
		fmt.Fprintf(&b, "\n%s q=%d iters=%d latency=%v warm=%q converged=%v",
			names[g.Key], g.NumQubits, g.Iterations, g.LatencyNs, names[g.WarmFrom], g.Converged)
	}
	return b.String()
}

func checkPins(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s diverged from the golden record\n got:\n%s\nwant:\n%s", what, got, want)
	}
}

const goldenBuildEntries = `cx iters=266 latency=300 inf=3f845fe225439c80 amps=27658d46cc859fad
cx+rz0.2 iters=154 latency=300 inf=3f838c13b1e7d880 amps=61c1856ef9c08480
rz0.4 iters=14 latency=23.75 inf=3f828810bc617040 amps=daf4b8af373e6d91
rz0.5 iters=2 latency=23.75 inf=3f801f51fdd29f00 amps=b0545dcaf66cacd2
rz3.0 iters=160 latency=41.25 inf=3f6069e58c6a7300 amps=57b1f55d7201bbb5
rz⊗rz iters=28 latency=200 inf=3f8201c2e43e9c00 amps=2b0ea951543ca537`

const goldenBuildStats = `total=624 failed=[swap]
rz0.4 q=1 iters=14 latency=23.75 warm="" converged=true
rz0.5 q=1 iters=2 latency=23.75 warm="rz0.4" converged=true
rz3.0 q=1 iters=160 latency=41.25 warm="" converged=true
rz⊗rz q=2 iters=28 latency=200 warm="" converged=true
cx q=2 iters=266 latency=300 warm="" converged=true
cx+rz0.2 q=2 iters=154 latency=300 warm="cx" converged=true
swap q=2 iters=0 latency=0 warm="" converged=false`

func TestGoldenBuild(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq, names, cfg := goldenCategory(t)
	lib, stats, err := Build(uniq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, "Build entries", entryPins(lib.Entries, names), goldenBuildEntries)
	checkPins(t, "Build stats", statPins(stats, names), goldenBuildStats)
}

const goldenParallelEntries = `cx iters=266 latency=300 inf=3f845fe225439c80 amps=27658d46cc859fad
cx+rz0.2 iters=154 latency=300 inf=3f838c13b1e7d880 amps=61c1856ef9c08480
rz0.4 iters=14 latency=23.75 inf=3f828810bc617040 amps=daf4b8af373e6d91
rz0.5 iters=2 latency=23.75 inf=3f801f51fdd29f00 amps=b0545dcaf66cacd2
rz3.0 iters=160 latency=37.5 inf=3f820fd4f50b0a80 amps=f9bcc28ecb12dfe9
rz⊗rz iters=28 latency=200 inf=3f8201c2e43e9c00 amps=2b0ea951543ca537`

func TestGoldenParallelBuild(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	uniq, names, cfg := goldenCategory(t)
	res, err := ParallelBuild(uniq, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkPins(t, "ParallelBuild entries", entryPins(res.Library.Entries, names), goldenParallelEntries)
}
