package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accqoc/internal/libstore"
)

func getUsage(t *testing.T, base, query string) UsageResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/library/usage" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("usage status %d: %s", resp.StatusCode, body)
	}
	var out UsageResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("usage decode: %v", err)
	}
	return out
}

// TestUsageEndpointSchema pins the GET /v1/library/usage wire format and
// checks the report against the store's own hit counters as an
// independent oracle.
func TestUsageEndpointSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)

	// Two identical compiles: the second is served warm, so every group
	// key gains one hit and the two keys co-occur twice.
	for i := 0; i < 2; i++ {
		if _, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, code)
		}
	}

	// Wire-format pin: the exact top-level JSON keys, not just the Go
	// struct round-trip.
	resp, err := http.Get(ts.URL + "/v1/library/usage")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("usage status %d err %v", resp.StatusCode, err)
	}
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"device", "requests", "tracked_keys", "history_size", "totals", "top", "pairs", "regret"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("usage response missing %q: %s", key, raw)
		}
	}
	var topRows []map[string]json.RawMessage
	if err := json.Unmarshal(wire["top"], &topRows); err != nil || len(topRows) == 0 {
		t.Fatalf("top rows: %v (%s)", err, wire["top"])
	}
	for _, key := range []string{"key", "num_qubits", "live", "hits", "trainings", "seeded", "cold", "iterations", "train_wall_millis", "score"} {
		if _, ok := topRows[0][key]; !ok {
			t.Errorf("top row missing %q: %v", key, topRows[0])
		}
	}

	u := getUsage(t, ts.URL, "")
	if u.Device != "default" {
		t.Errorf("device = %q, want default", u.Device)
	}
	if u.Requests != 2 {
		t.Errorf("requests = %d, want 2", u.Requests)
	}

	// Oracle: the store's own per-key hit counters.
	hits := s.Store().HitCounts()
	entries := s.Store().Snapshot().Entries
	if u.TrackedKeys != len(entries) {
		t.Errorf("tracked keys = %d, store holds %d", u.TrackedKeys, len(entries))
	}
	var totalHits int64
	for _, r := range u.Top {
		e, ok := entries[r.Key]
		if !ok {
			t.Fatalf("ledger row %q not in store", r.Key)
		}
		if r.Hits != hits[r.Key] {
			t.Errorf("row %q hits = %d, store counter %d", r.Key, r.Hits, hits[r.Key])
		}
		if r.Trainings != 1 || int64(e.Iterations) != r.Iterations {
			t.Errorf("row %q trainings/iterations = %d/%d, want 1/%d", r.Key, r.Trainings, r.Iterations, e.Iterations)
		}
		if !r.Live || r.TrainWallMillis <= 0 {
			t.Errorf("row %q live=%v wall=%v, want live with positive wall time", r.Key, r.Live, r.TrainWallMillis)
		}
		totalHits += r.Hits
	}
	if u.Totals.Hits != totalHits || totalHits == 0 {
		t.Errorf("totals.hits = %d, rows sum %d (want equal, nonzero)", u.Totals.Hits, totalHits)
	}
	if len(entries) > 1 && len(u.Pairs) == 0 {
		t.Error("multi-group program produced no co-occurrence pairs")
	}
	for _, p := range u.Pairs {
		if p.Count != 2 {
			t.Errorf("pair %v count = %d, want 2 (two identical requests)", p.Keys, p.Count)
		}
	}

	// Parameter validation.
	for _, q := range []string{"?n=0", "?n=abc", "?device=nope"} {
		resp, err := http.Get(ts.URL + "/v1/library/usage" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET usage%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if u2 := getUsage(t, ts.URL, "?n=1"); len(u2.Top) != 1 {
		t.Errorf("?n=1 returned %d rows", len(u2.Top))
	}

	// /debug/costs lists every device.
	dresp, err := http.Get(ts.URL + "/debug/costs")
	if err != nil {
		t.Fatal(err)
	}
	var costs DebugCostsResponse
	err = json.NewDecoder(dresp.Body).Decode(&costs)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs.Devices) != 1 || costs.Devices[0].Device != "default" || costs.Devices[0].Requests != 2 {
		t.Errorf("debug costs = %+v, want one default device with 2 requests", costs.Devices)
	}
}

// TestUsageSnapshotCycle pins the acceptance path: hit counts ride the
// snapshot, and a server booted from it reports a ledger matching the
// first server's counters.
func TestUsageSnapshotCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	first, tsFirst := newTestServer(t)
	for i := 0; i < 3; i++ {
		if _, code := postCompile(t, tsFirst.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, code)
		}
	}
	oracleHits := first.Store().HitCounts()
	oracleEntries := first.Store().Snapshot().Entries
	path := filepath.Join(t.TempDir(), "lib.snap")
	if err := first.Store().SaveSnapshotFingerprint(path, libstore.FormatGob, ""); err != nil {
		t.Fatalf("save: %v", err)
	}

	second := New(Config{Compile: fastOpts(), Workers: 4, BootSnapshot: path})
	tsSecond := httptest.NewServer(second.Handler())
	defer func() { tsSecond.Close(); second.Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(tsSecond.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("boot snapshot never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	u := getUsage(t, tsSecond.URL, "?n=1000")
	if u.Requests != 0 {
		t.Errorf("restored ledger requests = %d, want 0", u.Requests)
	}
	if u.TrackedKeys != len(oracleEntries) {
		t.Fatalf("restored tracked keys = %d, want %d", u.TrackedKeys, len(oracleEntries))
	}
	var totalHits int64
	for _, r := range u.Top {
		e, ok := oracleEntries[r.Key]
		if !ok {
			t.Fatalf("restored row %q unknown to first server", r.Key)
		}
		if r.Hits != oracleHits[r.Key] {
			t.Errorf("restored row %q hits = %d, oracle %d", r.Key, r.Hits, oracleHits[r.Key])
		}
		if r.Iterations != int64(e.Iterations) || r.Trainings != 1 {
			t.Errorf("restored row %q iterations/trainings = %d/%d, want %d/1", r.Key, r.Iterations, r.Trainings, e.Iterations)
		}
		totalHits += r.Hits
	}
	if totalHits == 0 {
		t.Error("no hits survived the snapshot cycle")
	}
	// The store-side ordering survives too.
	if got, want := second.Store().KeysByHits(), first.Store().KeysByHits(); !reflect.DeepEqual(got, want) {
		t.Errorf("KeysByHits after cycle = %v, want %v", got, want)
	}
}

// TestUsageLedgerOracleUnderLoad is the -race workout: concurrent
// compiles over a capacity-2 store (forced evictions and regret),
// concurrent /metrics and /v1/library/usage scrapes, then the ledger's
// totals checked against independently counted request results.
func TestUsageLedgerOracleUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s := New(Config{
		Compile:      fastOpts(),
		Workers:      4,
		StoreOptions: libstore.Options{Capacity: 2},
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Six distinct single-qubit programs over a 2-entry store: steady
	// eviction pressure, and revisiting them makes evicted keys miss
	// again (regret).
	prog := func(i int) string {
		return fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(%.2f) q[0];\n", 0.1+0.07*float64(i))
	}

	const workers, perWorker = 4, 9
	var compiles, trainedIters atomic.Int64
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrapeMetrics(t, ts.URL)
			resp, err := http.Get(ts.URL + "/v1/library/usage?n=50")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out, code := postCompile(t, ts.URL, CompileRequest{QASM: prog((w + i) % 6)})
				if code != http.StatusOK {
					t.Errorf("worker %d compile %d: status %d", w, i, code)
					return
				}
				compiles.Add(1)
				trainedIters.Add(int64(out.TrainingIterations))
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	u := getUsage(t, ts.URL, "?n=1000")
	if u.Requests != compiles.Load() {
		t.Errorf("ledger requests = %d, oracle %d", u.Requests, compiles.Load())
	}
	if u.Totals.Trainings != u.Totals.Seeded+u.Totals.Cold {
		t.Errorf("trainings %d != seeded %d + cold %d", u.Totals.Trainings, u.Totals.Seeded, u.Totals.Cold)
	}
	// Every executed training is reported by exactly one response
	// (singleflight) and accounted exactly once by the ledger.
	if u.Totals.Iterations != trainedIters.Load() {
		t.Errorf("ledger iterations = %d, responses sum %d", u.Totals.Iterations, trainedIters.Load())
	}
	// 6 distinct keys over capacity 2 must evict, and revisits must
	// charge regret, bounded by one event per eviction.
	if u.Regret.Evictions == 0 {
		t.Error("capacity-2 store never evicted")
	}
	if u.Regret.Events == 0 || u.Regret.Events > u.Regret.Evictions {
		t.Errorf("regret events = %d, want in [1, %d]", u.Regret.Events, u.Regret.Evictions)
	}
	// Evicted-and-retrained keys accumulate multiple trainings; totals
	// must cover every store-resident key's row.
	rows := map[string]bool{}
	for _, r := range u.Top {
		rows[r.Key] = true
		if r.Trainings < 1 {
			t.Errorf("row %q has no trainings", r.Key)
		}
	}
	for key := range s.Store().Snapshot().Entries {
		if !rows[key] {
			t.Errorf("store key %q missing from ledger", key)
		}
	}

	// The metric families agree with the report.
	exp := scrapeMetrics(t, ts.URL)
	if got := exp.sumSeries("accqoc_usage_requests_total"); got != float64(u.Requests) {
		t.Errorf("accqoc_usage_requests_total = %v, report says %d", got, u.Requests)
	}
	if got := exp.sumSeries("accqoc_usage_training_iterations_total"); got != float64(u.Totals.Iterations) {
		t.Errorf("accqoc_usage_training_iterations_total = %v, report says %d", got, u.Totals.Iterations)
	}
	if got := exp.sumSeries("accqoc_usage_regret_events_total"); got != float64(u.Regret.Events) {
		t.Errorf("accqoc_usage_regret_events_total = %v, report says %d", got, u.Regret.Events)
	}
}
