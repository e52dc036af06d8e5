package accqoc

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

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

// TestGoldenCompileSequence pins two Compile calls in sequence, bit for
// bit: the first trains a fresh library along its MST, the second's
// identity-rooted steps seed from the entries the first left behind.
// The values were measured before Compile moved onto the shared planner
// and executor, on amd64 (other architectures may fuse multiply-adds and
// legitimately differ in the last bits).
func TestGoldenCompileSequence(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	first := circuit.New(3)
	first.MustAppend(gate.RX, []int{0}, 0.5)
	first.MustAppend(gate.RY, []int{2}, 1.0)
	first.MustAppend(gate.CX, []int{0, 1})
	second := circuit.New(3)
	second.MustAppend(gate.RX, []int{0}, 0.6)
	second.MustAppend(gate.RY, []int{2}, 1.1)
	second.MustAppend(gate.RX, []int{1}, 2.0)

	c := New(fastOptions(topology.Linear(3)))
	var got strings.Builder
	for i, prog := range []*circuit.Circuit{first, second} {
		res, err := c.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "compile%d uncovered=%d iters=%d latency=%016x\n",
			i, res.UncoveredUnique, res.TrainingIterations, math.Float64bits(res.OverallLatencyNs))
	}
	lines := make([]string, 0, len(c.Library().Entries))
	for k, e := range c.Library().Entries {
		h := sha256.New()
		var buf [8]byte
		for _, ch := range e.Pulse.Amps {
			for _, a := range ch {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
				h.Write(buf[:])
			}
		}
		key := sha256.Sum256([]byte(k))
		lines = append(lines, fmt.Sprintf("key=%s q=%d iters=%d latency=%v inf=%016x amps=%s",
			hex.EncodeToString(key[:4]), e.NumQubits, e.Iterations, e.LatencyNs,
			math.Float64bits(e.Infidelity), hex.EncodeToString(h.Sum(nil))[:16]))
	}
	sort.Strings(lines)
	got.WriteString(strings.Join(lines, "\n"))
	if got.String() != goldenCompileSequence {
		t.Errorf("Compile sequence diverged from the golden record\n got:\n%s\nwant:\n%s", got.String(), goldenCompileSequence)
	}
}

const goldenCompileSequence = `compile0 uncovered=2 iters=476 latency=4084500000000000
compile1 uncovered=3 iters=2 latency=4037c00000000000
key=0c8512da q=1 iters=1 latency=23.75 inf=3f5faa759d787600 amps=9d4ea59fd76dc7a3
key=121da239 q=1 iters=0 latency=23.75 inf=3f50c9ff21fdaa00 amps=528d7ecec94eec0e
key=1231b2f8 q=1 iters=8 latency=23.75 inf=3f7b31ab32f31e00 amps=528d7ecec94eec0e
key=34e58a8c q=1 iters=1 latency=23.75 inf=3f62dde8cf203000 amps=ba9b4555df1a0d7c
key=f737387e q=2 iters=468 latency=650 inf=3f82dc456514a300 amps=8a1b7f96cf2eb402`
