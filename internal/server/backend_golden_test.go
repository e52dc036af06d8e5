package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"testing"

	"accqoc"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// compileMillis matches the one wall-clock field of a response body.
var compileMillis = regexp.MustCompile(`"compile_millis":[-+.eE0-9]+`)

// TestGoldenResponseBodies pins POST /v1/compile and POST
// /v1/circuits/compile (waveforms inlined) byte for byte, compile_millis
// aside, for two servebench pool programs on Melbourne under map2b4l. The
// store is preloaded with a synthetic entry for every key the programs
// need, so no GRAPE runs and every slot carries a waveform. The digests
// were recorded on amd64 before the back end was folded into one pricing
// pass; a change that claims the same wire bytes must reproduce them
// unedited.
func TestGoldenResponseBodies(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may differ", runtime.GOARCH)
	}
	opts := accqoc.Options{Device: topology.Melbourne(), Policy: grouping.Map2b4l, Precompile: fastOpts().Precompile}
	specs := []string{"named:4gt4-v0", "random:6:300:1"}
	s := New(Config{Compile: opts, Workers: 1})
	t.Cleanup(s.Close)
	comp := accqoc.New(opts)
	for _, spec := range specs {
		p, err := workload.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := comp.PlanGroups(p.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range plan.Unique {
			s.Store().Put(syntheticEntry(u.Key, u.NumQubits))
		}
	}
	preloaded := s.Store().Len()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		path   string
		body   any
		digest string
	}{
		{"/v1/compile", CompileRequest{Workload: specs[0]}, "1405848d6d3f4ccca2d94c1f80c27d49faf4b26e6cbefcc74ed87d533cc04024"},
		{"/v1/circuits/compile", CircuitRequest{CompileRequest: CompileRequest{Workload: specs[0]}, IncludeWaveforms: true}, "f6d6c9d0520c1a8a5bf78af172b9aad74d34330b0d226747a8cbf6c6480445c5"},
		{"/v1/compile", CompileRequest{Workload: specs[1]}, "23ef229bb9fd2856033ccb308c5a77bdecbbc2f40e8ef2080b905343eabc05c4"},
		{"/v1/circuits/compile", CircuitRequest{CompileRequest: CompileRequest{Workload: specs[1]}, IncludeWaveforms: true}, "2a4d21d04d466db87ec1e33d00383bc65867e65f8f9d845dbbf1863c61d3e747"},
	}
	for i, c := range cases {
		resp, raw := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var cr CircuitResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatal(err)
		}
		if c.path == "/v1/compile" {
			if err := json.Unmarshal(raw, &cr.Compile); err != nil {
				t.Fatal(err)
			}
		}
		mirrored := 0
		for _, slot := range cr.Schedule {
			if slot.Mirrored {
				mirrored++
			}
		}
		if !cr.Compile.WarmServed || cr.Compile.TrainingIterations != 0 || (c.path != "/v1/compile" && mirrored == 0) {
			t.Fatalf("case %d: warm_served %t, %d iterations, %d mirrored slots: want a warm answer with a mirrored slot",
				i, cr.Compile.WarmServed, cr.Compile.TrainingIterations, mirrored)
		}
		if n := len(compileMillis.FindAll(raw, -1)); n != 1 {
			t.Fatalf("case %d: %d compile_millis fields in %s", i, n, raw)
		}
		sum := sha256.Sum256(compileMillis.ReplaceAll(raw, []byte(`"compile_millis":0`)))
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("case %d (%s): body digest %s, want %s", i, c.path, got, c.digest)
		}
	}
	if st := s.Store().Stats(); st.Entries != preloaded {
		t.Fatalf("store holds %d entries after serving, want the %d preloaded", st.Entries, preloaded)
	}
}

// syntheticEntry is a deterministic entry for key whose channels carry
// distinct amplitudes and whose duration varies with the key.
func syntheticEntry(key string, numQubits int) *precompile.Entry {
	sum := sha256.Sum256([]byte(key))
	labels := []string{"x0", "y0", "x1", "y1"}[:2*numQubits]
	p := pulse.New(labels, precompile.SegmentsFor(numQubits), 1+float64(sum[1]%8)/4)
	for c := range p.Amps {
		for s := range p.Amps[c] {
			p.Amps[c][s] = float64(c) + float64(int(sum[(7*c+s)%len(sum)])-128)/1000
		}
	}
	return &precompile.Entry{Key: key, NumQubits: numQubits, Pulse: p, LatencyNs: p.Duration()}
}
