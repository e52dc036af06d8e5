package server

// Tests of the async job API on the routing/training seam: lifecycle and
// sync-equivalence of the returned schedules, the job JSON wire format,
// cancellation and shutdown semantics, job-store admission control, the
// shared-batch training accounting, and the mixed sync/async race test
// (run with -race) proving exactly-once training and zero lost jobs.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accqoc"
	"accqoc/internal/grouping"
	"accqoc/internal/jobs"
	"accqoc/internal/qasm"
)

// submitAsync posts a compile body with ?async=1 and decodes the 202
// envelope (left zero on any other status).
func submitAsync(t *testing.T, base, path string, payload any) (int, http.Header, AsyncAccepted) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path+"?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc AsyncAccepted
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header, acc
}

// getJob fetches one job record; ok is false on 404.
func getJob(t *testing.T, base, id string) (jobs.Job, bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return jobs.Job{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s status %d", id, resp.StatusCode)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j, true
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := getJob(t, base, id)
		if !ok {
			t.Fatalf("job %s vanished while polling", id)
		}
		if j.State == jobs.StateDone || j.State == jobs.StateFailed {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobs.Job{}
}

func cancelJob(t *testing.T, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestAsyncCircuitMatchesSync is the seam's equivalence oracle: the async
// path (submit, poll, fetch result) must return the same scheduled pulse
// program as a synchronous compile of the same circuit — batching and job
// plumbing change delivery, never the schedule.
func TestAsyncCircuitMatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)

	code, hdr, acc := submitAsync(t, ts.URL, "/v1/circuits/compile",
		CircuitRequest{CompileRequest: CompileRequest{QASM: oneQubitProgram}})
	if code != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", code)
	}
	if acc.JobID == "" || acc.State != jobs.StateQueued {
		t.Fatalf("202 envelope %+v", acc)
	}
	if acc.Poll != "/v1/jobs/"+acc.JobID || hdr.Get("Location") != acc.Poll {
		t.Fatalf("poll/Location mismatch: %+v, Location %q", acc, hdr.Get("Location"))
	}

	j := pollJob(t, ts.URL, acc.JobID)
	if j.State != jobs.StateDone {
		t.Fatalf("job state %s (error %q), want done", j.State, j.Error)
	}
	if j.Kind != "circuit" || j.StartedUnixMs == 0 || j.FinishedUnixMs == 0 {
		t.Fatalf("done job record incomplete: %+v", j)
	}
	var asyncCirc CircuitResponse
	if err := json.Unmarshal(j.Result, &asyncCirc); err != nil {
		t.Fatal(err)
	}

	syncCirc, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{QASM: oneQubitProgram}})
	if code != http.StatusOK {
		t.Fatalf("sync status %d", code)
	}
	if !reflect.DeepEqual(asyncCirc.Schedule, syncCirc.Schedule) {
		t.Fatalf("async schedule diverges from sync:\nasync %+v\nsync  %+v",
			asyncCirc.Schedule, syncCirc.Schedule)
	}
	if asyncCirc.MakespanNs != syncCirc.MakespanNs {
		t.Fatalf("makespan %v (async) != %v (sync)", asyncCirc.MakespanNs, syncCirc.MakespanNs)
	}
	if asyncCirc.Compile.QOCLatencyNs != syncCirc.Compile.QOCLatencyNs ||
		asyncCirc.Compile.EstimatedFidelity != syncCirc.Compile.EstimatedFidelity {
		t.Fatalf("latency/fidelity diverge: async %+v sync %+v", asyncCirc.Compile, syncCirc.Compile)
	}
	// The async job ran first on a cold server; it owns the training.
	if asyncCirc.Compile.UncoveredUnique == 0 || asyncCirc.Compile.TrainingIterations == 0 {
		t.Fatalf("cold async job reported no training: %+v", asyncCirc.Compile)
	}
	if !syncCirc.Compile.WarmServed {
		t.Fatalf("sync follow-up not warm: %+v", syncCirc.Compile)
	}
}

// TestJobWireFormat pins the job JSON: the exact key set by lifecycle
// stage and the state strings. A rename here breaks pollers — make it a
// conscious one.
func TestJobWireFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// The state strings are wire format.
	for want, got := range map[string]jobs.State{
		"queued": jobs.StateQueued, "running": jobs.StateRunning,
		"done": jobs.StateDone, "failed": jobs.StateFailed,
	} {
		if string(got) != want {
			t.Fatalf("state %q renamed to %q", want, got)
		}
	}

	_, ts := newTestServer(t)
	code, _, acc := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{Workload: "qft:2"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, acc.JobID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"id": true, "kind": true, "device": true, "state": true, "error": true,
		"result": true, "created_unix_ms": true, "started_unix_ms": true,
		"finished_unix_ms": true,
	}
	for k := range raw {
		if !allowed[k] {
			t.Errorf("job JSON grew unexpected key %q", k)
		}
	}
	for _, k := range []string{"id", "kind", "state", "result", "created_unix_ms", "started_unix_ms", "finished_unix_ms"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("done job JSON missing key %q", k)
		}
	}
	if _, ok := raw["error"]; ok {
		t.Error("done job carries an error field")
	}
	var state string
	if err := json.Unmarshal(raw["state"], &state); err != nil || state != "done" {
		t.Errorf("state = %q (%v), want done", state, err)
	}
}

// TestAsyncCancelBeforeFlush cancels a job parked in the batch window:
// the job must land failed/"canceled", survive as that record, and the
// training tier must never run its work.
func TestAsyncCancelBeforeFlush(t *testing.T) {
	s := New(Config{Compile: fastOpts(), Workers: 2, AsyncBatchWindow: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	code, _, acc := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{Workload: "qft:2"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if dc := cancelJob(t, ts.URL, acc.JobID); dc != http.StatusOK {
		t.Fatalf("cancel status %d", dc)
	}
	j, ok := getJob(t, ts.URL, acc.JobID)
	if !ok || j.State != jobs.StateFailed || j.Error != "canceled" {
		t.Fatalf("canceled job record %+v (ok=%v)", j, ok)
	}
	if tr := s.Store().Stats().Trainings; tr != 0 {
		t.Fatalf("canceled job trained %d groups", tr)
	}
	// A second cancel (or reap) of the now-terminal record deletes it.
	if dc := cancelJob(t, ts.URL, acc.JobID); dc != http.StatusOK {
		t.Fatalf("reap status %d", dc)
	}
	if _, ok := getJob(t, ts.URL, acc.JobID); ok {
		t.Fatal("reaped job still present")
	}
}

// TestAsyncCloseFailsQueuedJobs pins the shutdown sweep: jobs still
// queued (unflushed batch window) when the server closes are marked
// failed with a clear status, never stranded in "queued".
func TestAsyncCloseFailsQueuedJobs(t *testing.T) {
	s := New(Config{Compile: fastOpts(), Workers: 2, AsyncBatchWindow: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		code, _, acc := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{Workload: "qft:2"})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, code)
		}
		ids = append(ids, acc.JobID)
	}
	s.Close()
	for _, id := range ids {
		j, ok := s.jobStore.Get(id)
		if !ok {
			t.Fatalf("job %s lost at shutdown", id)
		}
		if j.State != jobs.StateFailed || j.Error != "server shutting down" {
			t.Fatalf("job %s at shutdown: state %s error %q", id, j.State, j.Error)
		}
	}
	if n := s.svc.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after Close", n)
	}
}

// TestAsyncJobCapRejects pins the async admission control: a job store
// saturated with live jobs answers 503 with a Retry-After hint, counted
// in rejected_async (and the accqoc_jobs_rejected_total series) without
// touching the sync rejection counter.
func TestAsyncJobCapRejects(t *testing.T) {
	s := New(Config{Compile: fastOpts(), Workers: 2, JobCap: 1, AsyncBatchWindow: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	if code, _, _ := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{Workload: "qft:2"}); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	body, _ := json.Marshal(CompileRequest{Workload: "qft:2"})
	resp, err := http.Post(ts.URL+"/v1/compile?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("503 missing Retry-After: %v", resp.Header)
	}
	if e["error"] != "job store full" {
		t.Fatalf("503 body %v", e)
	}
	st := getStats(t, ts.URL)
	if st.Server.RejectedAsync != 1 || st.Server.Rejected != 0 {
		t.Fatalf("rejection counters %+v, want rejected_async=1 rejected=0", st.Server)
	}
	exp := scrapeMetrics(t, ts.URL)
	if exp.samples["accqoc_jobs_rejected_total"] != 1 {
		t.Fatalf("accqoc_jobs_rejected_total = %v, want 1", exp.samples["accqoc_jobs_rejected_total"])
	}
	if exp.samples[`accqoc_jobs{state="queued"}`] != 1 {
		t.Fatalf(`accqoc_jobs{state="queued"} = %v, want 1`, exp.samples[`accqoc_jobs{state="queued"}`])
	}
}

// TestAsyncBatchSharesResolve pins the batching win: two async submissions
// of the same circuit inside one window share a single resolveGroups pass
// — the store trains each unique group once, and BOTH jobs report the
// training they waited on (were they resolved sequentially, the second
// would have been a pure cache hit).
func TestAsyncBatchSharesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s := New(Config{Compile: fastOpts(), Workers: 2, AsyncBatchWindow: 250 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	code1, _, acc1 := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{QASM: oneQubitProgram})
	code2, _, acc2 := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{QASM: oneQubitProgram})
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatalf("submit statuses %d, %d", code1, code2)
	}
	j1, j2 := pollJob(t, ts.URL, acc1.JobID), pollJob(t, ts.URL, acc2.JobID)
	if j1.State != jobs.StateDone || j2.State != jobs.StateDone {
		t.Fatalf("job states %s (%q), %s (%q)", j1.State, j1.Error, j2.State, j2.Error)
	}
	var a, b CompileResponse
	if err := json.Unmarshal(j1.Result, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j2.Result, &b); err != nil {
		t.Fatal(err)
	}
	if a.UncoveredUnique == 0 || b.UncoveredUnique == 0 {
		t.Fatalf("batched jobs not both cold: a=%+v b=%+v", a, b)
	}
	if a.TrainingIterations == 0 || a.TrainingIterations != b.TrainingIterations {
		t.Fatalf("shared-batch training cost diverges: a=%d b=%d",
			a.TrainingIterations, b.TrainingIterations)
	}
	// The store saw the union once: one training per unique group.
	if tr := s.Store().Stats().Trainings; tr != int64(a.UncoveredUnique) {
		t.Fatalf("store ran %d trainings for %d unique groups", tr, a.UncoveredUnique)
	}
}

// TestStatsAndHealthzReportTrainingTier pins satellite coverage: the
// stats and health endpoints must surface the training tier's queue and
// job-store state through the service interface.
func TestStatsAndHealthzReportTrainingTier(t *testing.T) {
	_, ts := newTestServer(t)
	st := getStats(t, ts.URL)
	if st.Server.Workers <= 0 || st.Server.QueueDepth <= 0 {
		t.Fatalf("stats missing tier shape: %+v", st.Server)
	}
	if st.Server.QueueLen != 0 || st.Server.InFlight != 0 {
		t.Fatalf("idle tier reports queue_len=%d in_flight=%d", st.Server.QueueLen, st.Server.InFlight)
	}
	if st.Server.Jobs == nil {
		t.Fatal("stats missing jobs census")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Compile.Workers <= 0 || h.Compile.QueueDepth <= 0 {
		t.Fatalf("healthz missing compile tier: %+v", h.Compile)
	}
	if h.Jobs == nil {
		t.Fatal("healthz missing jobs census")
	}
}

// TestMixedSyncAsyncExactlyOnce is the seam's race test (run with -race):
// sync requests, async submissions, polls and cancellations hammer one
// namespace concurrently. Training must stay exactly-once per unique
// group (hook-counted AND store-counted), no submitted job may be lost or
// stranded non-terminal, the store and seed index stay coherent, and the
// training tier drains to zero in-flight on Close. The caller's training
// hooks run next to the server's own metrics, which count the same events.
func TestMixedSyncAsyncExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	opts := fastOpts()
	var hookTrained, hookIters atomic.Int64
	opts.Precompile.Observer = func(numQubits, iterations int, infidelity float64, seeded bool) {
		hookTrained.Add(1)
	}
	opts.Precompile.Grape.IterationHook = func(infidelity, stepNorm float64) {
		hookIters.Add(1)
	}
	s := New(Config{
		Compile: opts, Workers: 4,
		AsyncBatchWindow: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())

	progs := []string{oneQubitProgram, rxAProgram, rxBProgram}
	// The oracle: the union of unique group keys across all programs —
	// however the mixed load interleaves, each key trains exactly once.
	comp := accqoc.New(fastOpts())
	uniqKeys := map[string]bool{}
	for _, src := range progs {
		prog, err := qasm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := comp.Prepare(prog)
		if err != nil {
			t.Fatal(err)
		}
		uniq, err := grouping.Deduplicate(prep.Grouping.Groups)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range uniq {
			uniqKeys[u.Key] = true
		}
	}

	const clients = 6
	var mu sync.Mutex
	var ids []string
	noteJob := func(id string) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog := progs[c%len(progs)]
			// Sync request.
			if _, code := postCompile(t, ts.URL, CompileRequest{QASM: prog}); code != http.StatusOK {
				t.Errorf("sync status %d", code)
			}
			// Async submit, poll to completion.
			code, _, acc := submitAsync(t, ts.URL, "/v1/compile", CompileRequest{QASM: prog})
			if code != http.StatusAccepted {
				t.Errorf("async submit status %d", code)
				return
			}
			noteJob(acc.JobID)
			if j := pollJob(t, ts.URL, acc.JobID); j.State != jobs.StateDone {
				t.Errorf("job %s ended %s (%q)", acc.JobID, j.State, j.Error)
			}
			// Async circuit submit raced by a cancel: every outcome is
			// legal — canceled while queued, 409 while running, or a reap
			// of an already-finished record — but the job must never be
			// lost while live or stranded non-terminal.
			code, _, acc2 := submitAsync(t, ts.URL, "/v1/circuits/compile",
				CircuitRequest{CompileRequest: CompileRequest{QASM: prog}})
			if code != http.StatusAccepted {
				t.Errorf("async circuit submit status %d", code)
				return
			}
			dc := cancelJob(t, ts.URL, acc2.JobID)
			if _, ok := getJob(t, ts.URL, acc2.JobID); ok {
				noteJob(acc2.JobID)
				jj := pollJob(t, ts.URL, acc2.JobID)
				if jj.State == jobs.StateFailed && jj.Error != "canceled" {
					t.Errorf("job %s failed with %q", acc2.JobID, jj.Error)
				}
			} else if dc != http.StatusOK {
				// Gone without a successful cancel/reap: a lost job.
				t.Errorf("job %s vanished (delete status %d)", acc2.JobID, dc)
			}
		}()
	}
	wg.Wait()

	// Zero lost jobs: every submitted ID resolves, terminally.
	for _, id := range ids {
		j, ok := s.jobStore.Get(id)
		if !ok {
			t.Errorf("job %s lost", id)
			continue
		}
		if j.State != jobs.StateDone && j.State != jobs.StateFailed {
			t.Errorf("job %s stranded in %s", id, j.State)
		}
	}

	// Exactly-once training, by both counters.
	st := s.Store().Stats()
	if st.TrainFailures != 0 {
		t.Fatalf("train failures: %d", st.TrainFailures)
	}
	if st.Trainings != int64(len(uniqKeys)) {
		t.Fatalf("store ran %d trainings, want exactly %d (one per unique group)",
			st.Trainings, len(uniqKeys))
	}
	if hookTrained.Load() != st.Trainings {
		t.Fatalf("hook counted %d trainings, store %d", hookTrained.Load(), st.Trainings)
	}
	// The server's metrics count the same trainings and iterations as the
	// caller's hooks: composing them dropped neither side.
	exp := scrapeMetrics(t, ts.URL)
	if got := exp.sumSeries("accqoc_grape_training_iterations_count"); got != float64(hookTrained.Load()) {
		t.Errorf("training-iterations histogram counted %v trainings, hook %d", got, hookTrained.Load())
	}
	if hookIters.Load() == 0 {
		t.Error("iteration hook never ran")
	}
	if got := exp.sumSeries("accqoc_grape_optimizer_iterations_total"); got != float64(hookIters.Load()) {
		t.Errorf("optimizer-iterations counter = %v, hook counted %d", got, hookIters.Load())
	}
	// Store and seed index coherent after the mixed load.
	stats := getStats(t, ts.URL)
	if stats.SeedIndex == nil || stats.SeedIndex.Entries != s.Store().Len() {
		t.Fatalf("seed index incoherent: %+v vs %d store entries", stats.SeedIndex, s.Store().Len())
	}

	ts.Close()
	s.Close()
	if n := s.svc.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after Close", n)
	}
	if n := s.svc.QueueLen(); n != 0 {
		t.Fatalf("queue length %d after Close", n)
	}
}
