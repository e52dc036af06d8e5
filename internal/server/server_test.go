package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"accqoc"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

// fastOpts keeps GRAPE budgets small so tests train in milliseconds.
func fastOpts() accqoc.Options {
	return accqoc.Options{
		Device: topology.Linear(3),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}
}

// oneQubitProgram: rz/h gates only, so every group is single-qubit and
// trains fast.
const oneQubitProgram = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
rz(0.4) q[0];
h q[0];
rz(1.1) q[1];
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Compile: fastOpts(), Workers: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postCompile(t *testing.T, url string, req CompileRequest) (*CompileResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, resp.StatusCode
	}
	var out CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/library/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerWarmCacheEndToEnd is the subsystem's demo: the same circuit
// submitted twice, with the second request served entirely from the warm
// library, visible both in the response and in /v1/library/stats.
func TestServerWarmCacheEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)

	cold, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram})
	if code != http.StatusOK {
		t.Fatalf("cold request status %d", code)
	}
	if cold.UncoveredUnique == 0 || cold.WarmServed {
		t.Fatalf("cold request reported warm: %+v", cold)
	}
	if cold.QOCLatencyNs <= 0 || cold.EstimatedFidelity <= 0 {
		t.Fatalf("cold request missing latency/fidelity: %+v", cold)
	}

	warm, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram})
	if code != http.StatusOK {
		t.Fatalf("warm request status %d", code)
	}
	if !warm.WarmServed || warm.CoverageRate != 1 || warm.UncoveredUnique != 0 {
		t.Fatalf("second request not warm: %+v", warm)
	}
	if warm.QOCLatencyNs != cold.QOCLatencyNs {
		t.Fatalf("warm latency %v differs from cold %v", warm.QOCLatencyNs, cold.QOCLatencyNs)
	}
	if warm.CompileMillis >= cold.CompileMillis {
		t.Fatalf("warm compile (%.2fms) not faster than cold (%.2fms)",
			warm.CompileMillis, cold.CompileMillis)
	}

	st := getStats(t, ts.URL)
	if st.Library.Trainings != int64(cold.UncoveredUnique) {
		t.Fatalf("trainings = %d, want %d (one per unique group)",
			st.Library.Trainings, cold.UncoveredUnique)
	}
	if st.Library.Hits == 0 {
		t.Fatal("warm request produced no library hits")
	}
	if st.Server.Requests != 2 || st.Server.Failures != 0 {
		t.Fatalf("server stats %+v, want 2 requests, 0 failures", st.Server)
	}
	if st.Server.TotalCompileMillis <= 0 {
		t.Fatal("no compile time accounted")
	}
}

// TestServerConcurrentDuplicatesTrainOnce submits the same circuit from
// many clients at once on a cold server: the store's singleflight must
// collapse them to exactly one GRAPE training per unique group.
func TestServerConcurrentDuplicatesTrainOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)

	// Independently compute the program's unique group count.
	prog, err := qasm.Parse(oneQubitProgram)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := accqoc.New(fastOpts()).Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	uniq, err := grouping.Deduplicate(prep.Grouping.Groups)
	if err != nil {
		t.Fatal(err)
	}
	wantUnique := len(uniq)
	if wantUnique == 0 {
		t.Fatal("program has no groups")
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram})
			if code != http.StatusOK {
				t.Errorf("status %d", code)
				return
			}
			if resp.FailedGroups != 0 {
				t.Errorf("failed groups: %+v", resp)
			}
		}()
	}
	wg.Wait()

	st := s.Store().Stats()
	if st.Trainings != int64(wantUnique) {
		t.Fatalf("%d concurrent duplicates ran %d trainings, want exactly %d",
			clients, st.Trainings, wantUnique)
	}
	if st.Entries != wantUnique {
		t.Fatalf("store has %d entries, want %d", st.Entries, wantUnique)
	}
	if st.TrainFailures != 0 {
		t.Fatalf("train failures: %d", st.TrainFailures)
	}
}

func TestServerWorkloadSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	resp, code := postCompile(t, ts.URL, CompileRequest{Workload: "qft:2"})
	if code != http.StatusOK {
		t.Fatalf("qft:2 status %d", code)
	}
	if resp.TotalGroups == 0 || resp.GateLatencyNs <= 0 {
		t.Fatalf("qft:2 response %+v", resp)
	}
}

func TestServerRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []CompileRequest{
		{},                             // neither field
		{QASM: "x", Workload: "qft:2"}, // both fields
		{QASM: "not qasm at all"},      // parse error
		{Workload: "warp:9"},           // unknown spec
		{Workload: "random:1:10:1"},    // bad qubit count
	}
	for i, req := range cases {
		if _, code := postCompile(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	// Raw garbage body.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

// TestServerRejectsOversizedBody checks the body cap on both compile
// endpoints: a well-formed body one byte over maxBodyBytes answers 400
// before any compilation and counts as a failed request, while a body of
// exactly maxBodyBytes is read whole.
func TestServerRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(path string, size int) (int, string) {
		t.Helper()
		pad := size - len(`{"qasm":""}`)
		body := `{"qasm":"` + strings.Repeat(" ", pad) + `"}`
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e["error"]
	}
	for _, path := range []string{"/v1/compile", "/v1/circuits/compile"} {
		if code, msg := post(path, maxBodyBytes+1); code != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
			t.Errorf("%s: body over the cap: status %d, error %q; want 400, body too large", path, code, msg)
		}
	}
	st := getStats(t, ts.URL)
	if st.Server.Requests != 2 || st.Server.Failures != 2 {
		t.Errorf("server stats %+v, want 2 requests, 2 failures", st.Server)
	}
	// At the cap the body decodes, and the blank program fails to parse.
	if code, msg := post("/v1/compile", maxBodyBytes); code != http.StatusBadRequest || strings.Contains(msg, "too large") {
		t.Errorf("body at the cap: status %d, error %q; want a 400 from the parser", code, msg)
	}
}

func TestServerGateBudget(t *testing.T) {
	s := New(Config{Compile: fastOpts(), MaxGates: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusBadRequest {
		t.Fatalf("over-budget program status %d, want 400", code)
	}
	if _, code := postCompile(t, ts.URL, CompileRequest{Workload: "qft:8"}); code != http.StatusBadRequest {
		t.Fatalf("over-budget workload status %d, want 400", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || !body.Ready {
		t.Fatalf("healthz body %+v", body)
	}
	if body.Boot != nil {
		t.Fatalf("no boot snapshot configured, healthz reports %+v", body.Boot)
	}
	if len(body.Devices) != 1 || body.Devices[0].Epoch != 0 {
		t.Fatalf("healthz devices %+v, want one device at epoch 0", body.Devices)
	}
}

// Two programs whose single 1Q groups are distinct but similar: rx
// rotations 0.15 rad apart have TraceFid distance ≈ 1−cos(0.075) ≪ 0.3,
// so the second is seedable from the first.
const (
	rxAProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.5) q[0];\n"
	rxBProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.65) q[0];\n"
)

// TestServerWarmSeededTraining is the serving-path demo of the paper's
// warm-start acceleration: after training group A, a similar cache-miss
// group B trains from A's pulse — visible in the response counters, the
// stats endpoint, and a strictly lower iteration count than B's cold
// compile.
func TestServerWarmSeededTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}

	// Cold baseline: A trains on one fresh server, B on a second one whose
	// empty index has nothing to lend, so B trains from a random init.
	var coldResp *CompileResponse
	for _, prog := range []string{rxAProgram, rxBProgram} {
		coldSrv := New(Config{Compile: fastOpts(), Workers: 2})
		coldTS := httptest.NewServer(coldSrv.Handler())
		resp, code := postCompile(t, coldTS.URL, CompileRequest{QASM: prog})
		coldTS.Close()
		coldSrv.Close()
		if code != http.StatusOK {
			t.Fatalf("cold status %d", code)
		}
		coldResp = resp
	}
	if coldResp.WarmSeeded != 0 || coldResp.SeedDistance != 0 {
		t.Fatalf("fresh server reported seeding: %+v", coldResp)
	}
	if coldResp.TrainingIterations == 0 {
		t.Fatal("cold compile reported zero training iterations")
	}

	// Warm path: train A first, then the similar B.
	s, ts := newTestServer(t)
	aResp, code := postCompile(t, ts.URL, CompileRequest{QASM: rxAProgram})
	if code != http.StatusOK {
		t.Fatalf("A status %d", code)
	}
	if aResp.WarmSeeded != 0 {
		t.Fatalf("first request on an empty library claims a seed: %+v", aResp)
	}
	bResp, code := postCompile(t, ts.URL, CompileRequest{QASM: rxBProgram})
	if code != http.StatusOK {
		t.Fatalf("B status %d", code)
	}
	if bResp.WarmSeeded != 1 {
		t.Fatalf("B trained unseeded next to a similar covered neighbor: %+v", bResp)
	}
	if bResp.SeedDistance <= 0 || bResp.SeedDistance > 0.3 {
		t.Fatalf("seed distance %v outside (0, WarmThreshold]", bResp.SeedDistance)
	}
	if bResp.TrainingIterations >= coldResp.TrainingIterations {
		t.Fatalf("warm-seeded training took %d iterations, cold took %d — seeding did not help",
			bResp.TrainingIterations, coldResp.TrainingIterations)
	}

	st := getStats(t, ts.URL)
	if st.Server.WarmSeeded != 1 {
		t.Fatalf("stats warm_seeded = %d, want 1", st.Server.WarmSeeded)
	}
	if st.SeedIndex == nil {
		t.Fatal("stats missing seed_index block")
	}
	if st.SeedIndex.Entries != s.Store().Len() {
		t.Fatalf("seed index holds %d entries, store %d — hook out of sync",
			st.SeedIndex.Entries, s.Store().Len())
	}
	if st.SeedIndex.Seeded == 0 || st.SeedIndex.Lookups == 0 {
		t.Fatalf("seed index counters flat: %+v", st.SeedIndex)
	}
	// Serving-path trainings pre-index under their known target unitary,
	// so the store hook never propagates: the request path performs zero
	// matrix exponentials for index maintenance (the acceptance
	// invariant; snapshot backfill at boot is the only propagation site).
	if st.SeedIndex.Propagations != 0 {
		t.Fatalf("serving path propagated %d pulses for the index, want 0", st.SeedIndex.Propagations)
	}
}

// TestServerPlanFailureFallsBackToLegacyPath configures an unknown
// similarity function — similarity.Distance errors, so MST planning for
// a multi-group cold request cannot build its graph — and requires the
// request to degrade to the legacy cold path (200, trained groups)
// rather than fail.
func TestServerPlanFailureFallsBackToLegacyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	opts := fastOpts()
	opts.Precompile.Similarity = "no-such-metric"
	s := New(Config{Compile: opts, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	prog := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.7) q[0];\nrx(0.9) q[1];\n"
	resp, code := postCompile(t, ts.URL, CompileRequest{QASM: prog})
	if code != http.StatusOK {
		t.Fatalf("plan failure escalated to status %d, want 200 via legacy fallback", code)
	}
	if resp.FailedGroups != 0 || resp.UncoveredUnique != 2 {
		t.Fatalf("fallback did not train the groups: %+v", resp)
	}
	if resp.WarmSeeded != 0 {
		t.Fatalf("broken similarity function claimed a seed: %+v", resp)
	}
}

// TestServerInRequestMSTSeeding submits one request holding two similar
// cold groups against an empty library: the plan must train them along
// the MST edge so the second seeds from the first, with no covered
// entries involved at all.
func TestServerInRequestMSTSeeding(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	prog := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.7) q[0];\nrx(0.9) q[1];\n"
	resp, code := postCompile(t, ts.URL, CompileRequest{QASM: prog})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.UncoveredUnique != 2 {
		t.Fatalf("want 2 cold unique groups, got %+v", resp)
	}
	if resp.WarmSeeded != 1 {
		t.Fatalf("MST child did not seed from its in-request parent: %+v", resp)
	}
}

// TestServerDisabledIndexBitIdentical pins the determinism baseline: a
// single-group program served on a fresh server has nothing to seed from,
// so the stored entry must be byte-for-byte equal to training that group
// directly, cold, from the same deterministic GRAPE options.
func TestServerDisabledIndexBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	got := map[string]*precompile.Entry{}
	for _, prog := range []string{rxAProgram, cx2qAProgram} {
		s := New(Config{Compile: fastOpts(), Workers: 4})
		ts := httptest.NewServer(s.Handler())
		resp, code := postCompile(t, ts.URL, CompileRequest{QASM: prog})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp.UncoveredUnique != 1 || resp.WarmSeeded != 0 {
			t.Fatalf("want one cold unseeded training, got %+v", resp)
		}
		for k, e := range s.Store().Snapshot().Entries {
			got[k] = e
		}
		ts.Close()
		s.Close()
	}

	// Reference: train every unique group directly, cold, from the same
	// deterministic GRAPE options.
	comp := accqoc.New(fastOpts())
	cfg := comp.Options().Precompile
	want := map[string]*precompile.Entry{}
	for _, progSrc := range []string{rxAProgram, cx2qAProgram} {
		prog, err := qasm.Parse(progSrc)
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
			if _, ok := want[u.Key]; ok {
				continue
			}
			e, err := precompile.TrainGroup(u, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[u.Key] = e
		}
	}

	if len(got) != len(want) {
		t.Fatalf("store has %d entries, reference %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("store missing %q", key)
		}
		if g.LatencyNs != w.LatencyNs || g.Iterations != w.Iterations {
			t.Fatalf("entry %q diverges: latency %v vs %v, iterations %d vs %d",
				key, g.LatencyNs, w.LatencyNs, g.Iterations, w.Iterations)
		}
		if !reflect.DeepEqual(g.Pulse.Amps, w.Pulse.Amps) || g.Pulse.Dt != w.Pulse.Dt {
			t.Fatalf("entry %q pulse not bit-identical to the cold reference", key)
		}
	}
}

// TestServerConcurrentSeededDuplicates hammers the warm path from many
// clients at once (run with -race): the hook-driven index mutations and
// seed lookups must be exactly-once-per-group and race-clean.
func TestServerConcurrentSeededDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: rxAProgram}); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code := postCompile(t, ts.URL, CompileRequest{QASM: rxBProgram})
			if code != http.StatusOK {
				t.Errorf("status %d", code)
				return
			}
			if resp.FailedGroups != 0 {
				t.Errorf("failed groups: %+v", resp)
			}
		}()
	}
	wg.Wait()
	st := s.Store().Stats()
	// A's group plus B's group: exactly two trainings ever ran.
	if st.Trainings != 2 {
		t.Fatalf("trainings = %d, want 2 (singleflight with seeding)", st.Trainings)
	}
	if got := s.Store().Len(); getStats(t, ts.URL).SeedIndex.Entries != got {
		t.Fatalf("index/store entry mismatch after concurrent load")
	}
}

// TestServerRejectsProgramWiderThanDevice: a program with more qubits
// than its device is the client's error, answered 400 by the sync, the
// circuit and the async endpoints before it takes a worker, with the
// mapper's reason stated once.
func TestServerRejectsProgramWiderThanDevice(t *testing.T) {
	_, ts := newTestServer(t) // linear-3
	fiveQubits := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\nh q[0];\ncx q[0],q[4];\n"
	cases := []struct {
		path string
		body CompileRequest
		want string
	}{
		{"/v1/compile", CompileRequest{Workload: "qft:6"}, "circuit needs 6 qubits"},
		{"/v1/compile?async=1", CompileRequest{Workload: "qft:6"}, "circuit needs 6 qubits"},
		{"/v1/circuits/compile", CompileRequest{QASM: fiveQubits}, "circuit needs 5 qubits"},
		{"/v1/circuits/compile?async=1", CompileRequest{QASM: fiveQubits}, "circuit needs 5 qubits"},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if resp.StatusCode != http.StatusBadRequest || strings.Count(e["error"], c.want) != 1 {
			t.Errorf("%s: status %d, error %q; want 400 naming %q once", c.path, resp.StatusCode, e["error"], c.want)
		}
	}
}
