package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestGoldenServingSequence pins the serving path's MST training bit for
// bit: one request whose two similar cold groups train along an MST edge,
// then a similar request whose identity-rooted group seeds from the seed
// index, whose MST child seeds from it, and whose third group is a hit.
// It pins the store's entries and each response's training_iterations,
// warm_seeded and seed_distance. The values were measured before the
// serving path moved onto the shared planner and executor, on amd64
// (other architectures may fuse multiply-adds and legitimately differ in
// the last bits).
func TestGoldenServingSequence(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)
	progs := []string{
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.7) q[0];\nrx(0.9) q[1];\n",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nrx(0.75) q[0];\nrx(1.0) q[1];\nrx(0.7) q[2];\n",
	}
	var got strings.Builder
	for i, prog := range progs {
		resp, code := postCompile(t, ts.URL, CompileRequest{QASM: prog})
		if code != http.StatusOK {
			t.Fatalf("request %d status %d", i, code)
		}
		fmt.Fprintf(&got, "request%d covered=%d uncovered=%d iters=%d warm_seeded=%d seed_distance=%016x\n",
			i, resp.CoveredGroups, resp.UncoveredUnique, resp.TrainingIterations, resp.WarmSeeded,
			math.Float64bits(resp.SeedDistance))
	}
	var lines []string
	for k, e := range s.Store().Snapshot().Entries {
		h := sha256.New()
		var buf [8]byte
		for _, ch := range e.Pulse.Amps {
			for _, a := range ch {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
				h.Write(buf[:])
			}
		}
		key := sha256.Sum256([]byte(k))
		lines = append(lines, fmt.Sprintf("key=%s iters=%d latency=%v inf=%016x amps=%s",
			hex.EncodeToString(key[:4]), e.Iterations, e.LatencyNs,
			math.Float64bits(e.Infidelity), hex.EncodeToString(h.Sum(nil))[:16]))
	}
	sort.Strings(lines)
	got.WriteString(strings.Join(lines, "\n"))
	if got.String() != goldenServingSequence {
		t.Errorf("serving sequence diverged from the golden record\n got:\n%s\nwant:\n%s", got.String(), goldenServingSequence)
	}
}

const goldenServingSequence = `request0 covered=0 uncovered=2 iters=139 warm_seeded=1 seed_distance=3f7476832bf42000
request1 covered=1 uncovered=2 iters=110 warm_seeded=2 seed_distance=3f709e803babe3c0
key=11f60861 iters=57 latency=37.5 inf=3f81b94eff3bb080 amps=8408d9660cfefa27
key=6d4ab0d9 iters=83 latency=37.5 inf=3f68bd5fc9bc1b00 amps=b483c45797b30f57
key=9231d93f iters=53 latency=37.5 inf=3f6f5f6c2d37f600 amps=b483c45797b30f57
key=a14ad977 iters=56 latency=37.5 inf=3f7bd5de5ad24900 amps=07adef288961261a`
