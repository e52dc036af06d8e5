package grape

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
)

// Golden bit-identity pins. GRAPE is deterministic for a fixed seed, so a
// change to the evaluation core or the optimizer that claims to compute the
// same thing faster must reproduce these values exactly: iteration and
// trial-point counts, the infidelity's bits, and a hash over every
// amplitude's bits. The binary-search pin also fixes which probes run, so a
// search-order change that happens to stay within the tier-1 tolerances
// still fails here. The values were measured on amd64; other architectures
// may fuse multiply-adds and legitimately differ in the last bits.

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// bitsHash is a SHA-256 over the little-endian Float64bits of every value,
// slice by slice.
func bitsHash(vs ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, a := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ampHash hashes a pulse's amplitudes, channel by channel.
func ampHash(p *pulse.Pulse) string { return bitsHash(p.Amps...) }

func TestGoldenCompile(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// The BenchmarkCompile1Q/2Q configurations.
	cases := []struct {
		name     string
		sys      *hamiltonian.System
		g        gate.Name
		duration float64
		opts     Options
		iters    int
		evals    int
		infBits  uint64
		hash     string
	}{
		{"1q-h", oneQ(), gate.H, 50,
			Options{Segments: 12, TargetInfidelity: 1e-4, Seed: 3, Restarts: -1},
			7, 19, 0x3eecd26332a00000, "38df4490c6ed9d1468b2b204774b3c2bbf3d5e178d0b404801ae2ef180f42a5f"},
		{"2q-cx", twoQ(), gate.CX, 500,
			Options{Segments: 32, TargetInfidelity: 1e-3, Seed: 5, MaxIterations: 400, Restarts: -1},
			46, 74, 0x3f4fe98f72c99000, "874b02c11a310f0eee684cf01923405407afae784aed628cc56e8cfd00e64f48"},
	}
	for _, c := range cases {
		res, err := Compile(c.sys, gateU(t, c.g), c.duration, c.opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := [4]any{res.Iterations, res.FuncEvals, math.Float64bits(res.Infidelity), ampHash(res.Pulse)}
		want := [4]any{c.iters, c.evals, c.infBits, c.hash}
		if got != want {
			t.Errorf("%s: (iters, evals, infidelity bits, amp hash) = %v, want %v", c.name, got, want)
		}
	}
}

func TestGoldenBinarySearch(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	res, err := CompileBinarySearch(twoQ(), gateU(t, gate.CX),
		Options{Segments: 16, TargetInfidelity: 1e-2, Seed: 5, MaxIterations: 200},
		SearchOptions{MinDuration: 150, MaxDuration: 1500, Resolution: 50, HintDuration: 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The hint's 1.25× probe (500 ns) converges, so the search bisects
	// down from it, and every shorter probe fails.
	want := []Probe{
		{Duration: 500, Converged: true, Iterations: 175},
		{Duration: 325, Converged: false, Iterations: 200},
		{Duration: 412.5, Converged: false, Iterations: 200},
		{Duration: 456.25, Converged: false, Iterations: 200},
	}
	const wantDuration = 500
	const wantHash = "2c119b86e10913323606fe4e981b68e437577a86ce9bfec52512a68da7a70a5a"
	if res.Duration != wantDuration {
		t.Errorf("duration = %v, want %v", res.Duration, wantDuration)
	}
	if len(res.Probes) != len(want) {
		t.Errorf("%d probes %+v, want %d %+v", len(res.Probes), res.Probes, len(want), want)
	}
	for i := range min(len(res.Probes), len(want)) {
		g, w := res.Probes[i], want[i]
		if g.Duration != w.Duration || g.Converged != w.Converged || g.Iterations != w.Iterations {
			t.Errorf("probe %d = {%v %v %d}, want {%v %v %d}", i, g.Duration, g.Converged, g.Iterations,
				w.Duration, w.Converged, w.Iterations)
		}
	}
	if h := ampHash(res.Pulse); h != wantHash {
		t.Errorf("amp hash = %s, want %s", h, wantHash)
	}
}
