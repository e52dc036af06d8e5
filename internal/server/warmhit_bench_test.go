package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
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
	"accqoc/internal/usage"
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
	opts := warmPoolOptions()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	seed := New(Config{Compile: opts, Workers: 1, Logger: quiet})
	var bodies [][]byte
	srcs, plans := warmPool(b, opts)
	for i, src := range srcs {
		for _, u := range plans[i].Unique {
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

// BenchmarkRecordRequestWarmPool files the windows the server files with
// its usage ledger on servebench's warm traffic: each pool program's
// unique canonical keys (60, 57 and 69 of them, most ≈240-byte 4×4 keys),
// in passes over the pool whose order is drawn from a seeded RNG, as
// servebench's warm client draws it. The ledger has filed one pass before
// the timer starts. An op is one request; displaced/op counts the pairs
// it displaces at the default PairCap.
func BenchmarkRecordRequestWarmPool(b *testing.B) {
	_, plans := warmPool(b, warmPoolOptions())
	windows := make([][]string, len(plans))
	for i, plan := range plans {
		for _, u := range plan.Unique {
			windows[i] = append(windows[i], u.Key)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var order []int
	for len(order) < b.N {
		order = append(order, rng.Perm(len(windows))...)
	}
	l := usage.NewLedger(usage.Options{})
	for _, w := range windows {
		l.RecordRequest(w)
	}
	dropped := l.Stats().DroppedPairs
	b.ReportAllocs()
	b.ResetTimer()
	for _, w := range order[:b.N] {
		l.RecordRequest(windows[w])
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Stats().DroppedPairs-dropped)/float64(b.N), "displaced/op")
}

// warmPoolOptions is servebench's warm configuration: Melbourne under
// map2b4l.
func warmPoolOptions() accqoc.Options {
	return accqoc.Options{Device: topology.Melbourne(), Policy: grouping.Map2b4l, Precompile: fastOpts().Precompile}
}

// warmPool returns servebench's warm pool programs (4gt4-v0, qft_10 and
// random:6:300:1) as the OpenQASM a client posts, and the plan the server
// makes of each.
func warmPool(b *testing.B, opts accqoc.Options) ([]string, []*accqoc.GroupPlan) {
	b.Helper()
	comp := accqoc.New(opts)
	var srcs []string
	var plans []*accqoc.GroupPlan
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
		srcs = append(srcs, src)
		plans = append(plans, plan)
	}
	return srcs, plans
}
