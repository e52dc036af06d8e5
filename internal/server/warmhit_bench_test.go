package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"accqoc"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// BenchmarkServeWarmHit is one warm pass of servebench's warm traffic in
// process: each of its three pool programs (4gt4-v0, qft_10 and
// random:6:300:1 on Melbourne under map2b4l), posted as OpenQASM to POST
// /v1/circuits/compile through Server.Handler, with no transport. The
// server boots from a snapshot holding one synthetic entry for every key
// the programs need, so its entries are built the way a booted server's
// are and no GRAPE runs. An op is the pass; run it with -benchmem.
func BenchmarkServeWarmHit(b *testing.B) {
	opts := accqoc.Options{Device: topology.Melbourne(), Policy: grouping.Map2b4l, Precompile: fastOpts().Precompile}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	comp := accqoc.New(opts)
	seed := New(Config{Compile: opts, Workers: 1, Logger: quiet})
	var bodies [][]byte
	for _, spec := range []string{"named:4gt4-v0", "named:qft_10", "random:6:300:1"} {
		p, err := workload.FromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		src := qasm.Print(p.Circuit)
		prog, err := qasm.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := comp.PlanGroups(prog)
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range plan.Unique {
			seed.Store().Put(syntheticEntry(u.Key, u.NumQubits))
		}
		body, err := json.Marshal(CircuitRequest{CompileRequest: CompileRequest{QASM: src}})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	snap := filepath.Join(b.TempDir(), "library.snap")
	ns := seed.defaultNS()
	if err := ns.Store.SaveSnapshotFingerprint(snap, libstore.FormatGob, ns.Profile.Fingerprint()); err != nil {
		b.Fatal(err)
	}
	entries := seed.Store().Len()
	seed.Close()

	s := New(Config{Compile: opts, Workers: 1, BootSnapshot: snap, Logger: quiet})
	b.Cleanup(s.Close)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		done, n, err := s.BootStatus()
		if done {
			if err != nil || n != entries {
				b.Fatalf("boot loaded %d of %d entries: %v", n, entries, err)
			}
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("snapshot not loaded after a minute")
		}
	}
	h := s.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/circuits/compile", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	for _, body := range bodies {
		var cr CircuitResponse
		if err := json.Unmarshal(post(body).Body.Bytes(), &cr); err != nil {
			b.Fatal(err)
		}
		if !cr.Compile.WarmServed || cr.Compile.TrainingIterations != 0 {
			b.Fatalf("not a warm hit: %+v", cr.Compile)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, body := range bodies {
			post(body)
		}
	}
}
