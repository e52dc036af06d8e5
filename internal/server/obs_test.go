package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"accqoc/internal/grape"
)

// exposition is a parsed /metrics scrape: family types plus every sample
// keyed by its full series (name + sorted label string as rendered).
type exposition struct {
	types   map[string]string
	samples map[string]float64
	order   []string
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)

// scrapeMetrics fetches and parses /metrics, failing the test on any
// malformed exposition line — this is the wire-format oracle the CI smoke
// step mirrors.
func scrapeMetrics(t *testing.T, base string) exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := exposition{types: map[string]string{}, samples: map[string]float64{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			out.types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, perr := strconv.ParseFloat(m[2], 64)
		if perr != nil && m[2] != "+Inf" && m[2] != "-Inf" && m[2] != "NaN" {
			t.Fatalf("malformed sample value in %q", line)
		}
		out.samples[m[1]] = v
		out.order = append(out.order, m[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumSeries totals every sample of a family whose labels include all the
// given `key="value"` fragments.
func (e exposition) sumSeries(name string, labelFrags ...string) float64 {
	var total float64
	for series, v := range e.samples {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, frag := range labelFrags {
			if !strings.Contains(series, frag) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// TestMetricsExposition pins the /metrics wire format: family names and
// types, the label sets of the core series, and histogram completeness
// (+Inf bucket, _sum, _count). A rename here is a dashboard break — make
// it a conscious one.
func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusOK {
		t.Fatalf("cold compile status %d", code)
	}
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusOK {
		t.Fatalf("warm compile status %d", code)
	}
	exp := scrapeMetrics(t, ts.URL)

	wantTypes := map[string]string{
		"accqoc_http_requests_total":               "counter",
		"accqoc_http_request_duration_seconds":     "histogram",
		"accqoc_http_in_flight":                    "gauge",
		"accqoc_compile_duration_seconds":          "histogram",
		"accqoc_grape_training_iterations":         "histogram",
		"accqoc_grape_training_infidelity":         "histogram",
		"accqoc_grape_optimizer_iterations_total":  "counter",
		"accqoc_grape_step_norm":                   "histogram",
		"accqoc_seed_distance":                     "histogram",
		"accqoc_seed_lookups_total":                "counter",
		"accqoc_store_hits_total":                  "counter",
		"accqoc_store_misses_total":                "counter",
		"accqoc_store_evictions_total":             "counter",
		"accqoc_store_inserts_total":               "counter",
		"accqoc_store_trainings_total":             "counter",
		"accqoc_store_coalesced_total":             "counter",
		"accqoc_store_train_failures_total":        "counter",
		"accqoc_store_entries":                     "gauge",
		"accqoc_device_epoch":                      "gauge",
		"accqoc_device_epoch_age_seconds":          "gauge",
		"accqoc_roll_active":                       "gauge",
		"accqoc_roll_planned":                      "gauge",
		"accqoc_roll_pending":                      "gauge",
		"accqoc_queue_depth":                       "gauge",
		"accqoc_compile_in_flight":                 "gauge",
		"accqoc_jobs":                              "gauge",
		"accqoc_jobs_rejected_total":               "counter",
		"accqoc_usage_requests_total":              "counter",
		"accqoc_usage_tracked_keys":                "gauge",
		"accqoc_usage_training_iterations_total":   "counter",
		"accqoc_usage_training_wall_seconds_total": "counter",
		"accqoc_usage_trainings_total":             "counter",
		"accqoc_usage_hits_total":                  "counter",
		"accqoc_usage_regret_events_total":         "counter",
		"accqoc_usage_regret_iterations_total":     "counter",
		"accqoc_usage_regret_wall_seconds_total":   "counter",
		"accqoc_usage_cooccurrence_pairs":          "gauge",
		"accqoc_usage_cooccurrence_dropped_total":  "counter",
		"accqoc_go_goroutines":                     "gauge",
		"accqoc_go_heap_inuse_bytes":               "gauge",
		"accqoc_go_gc_pause_seconds":               "histogram",
	}
	for name, typ := range wantTypes {
		if got := exp.types[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}

	// Core series label sets.
	for _, series := range []string{
		`accqoc_http_requests_total{endpoint="/v1/compile",code="200"}`,
		`accqoc_http_request_duration_seconds_count{endpoint="/v1/compile"}`,
		`accqoc_http_request_duration_seconds_bucket{endpoint="/v1/compile",le="+Inf"}`,
		`accqoc_http_request_duration_seconds_sum{endpoint="/v1/compile"}`,
		`accqoc_compile_duration_seconds_count{device="default"}`,
		`accqoc_grape_training_iterations_count{qubits="1"}`,
		`accqoc_grape_training_infidelity_bucket{qubits="1",le="+Inf"}`,
		`accqoc_store_hits_total{device="default"}`,
		`accqoc_store_trainings_total{device="default"}`,
		`accqoc_device_epoch{device="default"}`,
		`accqoc_device_epoch_age_seconds{device="default"}`,
		`accqoc_roll_active{device="default"}`,
		`accqoc_jobs{state="queued"}`,
		`accqoc_jobs{state="running"}`,
		`accqoc_jobs{state="done"}`,
		`accqoc_jobs{state="failed"}`,
		`accqoc_jobs_rejected_total`,
		`accqoc_usage_requests_total{device="default"}`,
		`accqoc_usage_tracked_keys{device="default"}`,
		`accqoc_usage_training_iterations_total{device="default"}`,
		`accqoc_usage_trainings_total{device="default",seeded="false"}`,
		`accqoc_usage_hits_total{device="default"}`,
		`accqoc_usage_regret_events_total{device="default"}`,
		`accqoc_usage_cooccurrence_pairs{device="default"}`,
		`accqoc_go_goroutines`,
		`accqoc_go_heap_inuse_bytes`,
		`accqoc_go_gc_pause_seconds_bucket{le="+Inf"}`,
		`accqoc_go_gc_pause_seconds_count`,
	} {
		if _, ok := exp.samples[series]; !ok {
			t.Errorf("series %s missing from exposition", series)
		}
	}

	if exp.samples[`accqoc_http_requests_total{endpoint="/v1/compile",code="200"}`] != 2 {
		t.Errorf("http_requests_total = %v, want 2",
			exp.samples[`accqoc_http_requests_total{endpoint="/v1/compile",code="200"}`])
	}
	if exp.samples["accqoc_grape_optimizer_iterations_total"] <= 0 {
		t.Error("optimizer iteration counter never incremented")
	}
	if exp.samples[`accqoc_grape_training_iterations_count{qubits="1"}`] <= 0 {
		t.Error("no GRAPE trainings recorded")
	}
	if exp.samples[`accqoc_store_hits_total{device="default"}`] <= 0 {
		t.Error("warm request produced no store hits in /metrics")
	}
	if got := exp.samples[`accqoc_usage_requests_total{device="default"}`]; got != 2 {
		t.Errorf("usage_requests_total = %v, want 2", got)
	}
	if exp.samples[`accqoc_usage_hits_total{device="default"}`] <= 0 {
		t.Error("warm request produced no ledger hits in /metrics")
	}
	if exp.samples[`accqoc_go_goroutines`] <= 0 {
		t.Error("goroutine gauge not positive")
	}
}

// TestDebugRequestsSchema pins the flight-recorder JSON: recent/slowest
// arrays of traces, each with the request ID (matching X-Request-Id),
// endpoint, status, and per-stage spans covering the compile pipeline.
func TestDebugRequestsSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)

	body := strings.NewReader(fmt.Sprintf(`{"qasm":%q}`, oneQubitProgram))
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("compile response missing X-Request-Id")
	}

	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var out struct {
		Recent []struct {
			ID         string  `json:"id"`
			Endpoint   string  `json:"endpoint"`
			Device     string  `json:"device"`
			Epoch      int     `json:"epoch"`
			Qubits     int     `json:"qubits"`
			Gates      int     `json:"gates"`
			DurationMs float64 `json:"duration_ms"`
			Status     int     `json:"status"`
			Spans      []struct {
				Name       string  `json:"name"`
				DurationUs float64 `json:"duration_us"`
				Outcome    string  `json:"outcome"`
			} `json:"spans"`
		} `json:"recent"`
		Slowest []json.RawMessage `json:"slowest"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) == 0 || len(out.Slowest) == 0 {
		t.Fatalf("flight recorder empty: %d recent, %d slowest", len(out.Recent), len(out.Slowest))
	}
	tr := out.Recent[0]
	if tr.ID != rid {
		t.Errorf("trace id %q != X-Request-Id %q", tr.ID, rid)
	}
	if tr.Endpoint != "/v1/compile" || tr.Status != http.StatusOK {
		t.Errorf("trace endpoint/status = %q/%d", tr.Endpoint, tr.Status)
	}
	if tr.Device != "default" || tr.Qubits != 2 || tr.Gates != 3 {
		t.Errorf("trace meta = %+v", tr)
	}
	if tr.DurationMs <= 0 {
		t.Error("trace duration not recorded")
	}
	stages := map[string]bool{}
	trained := 0
	for _, sp := range tr.Spans {
		stages[sp.Name] = true
		if sp.Name == "train" && sp.Outcome == "trained" {
			trained++
		}
	}
	// The request files its keys with the usage ledger (on by default),
	// so the ledger span must be there too.
	for _, want := range []string{"parse", "queue", "prepare", "plan", "train", "ledger"} {
		if !stages[want] {
			t.Errorf("trace missing %q span (got %v)", want, stages)
		}
	}
	if trained == 0 {
		t.Error("cold compile recorded no trained spans")
	}
}

// TestFailedTrainingTracedAsFailed pins how a training that returns an
// error shows in /debug/requests: with a 2Q bracket no pulse can reach,
// the CX group's train span says "failed" and carries the error, while the
// same request's successful 1Q train spans serialize exactly as before
// (no error key).
func TestFailedTrainingTracedAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	opts := fastOpts()
	opts.Precompile.Grape.MaxIterations = 40
	opts.Precompile.Search2Q = grape.SearchOptions{MinDuration: 5, MaxDuration: 10, Resolution: 5}
	s := New(Config{Compile: opts, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	const prog = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0],q[1];
rz(0.4) q[2];
h q[2];
`
	resp, code := postCompile(t, ts.URL, CompileRequest{QASM: prog})
	if code != http.StatusOK {
		t.Fatalf("compile status %d", code)
	}
	if resp.FailedGroups == 0 {
		t.Fatal("the unreachable 2Q group did not fail")
	}

	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var out struct {
		Recent []struct {
			Spans []json.RawMessage `json:"spans"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 1 {
		t.Fatalf("%d recent traces, want 1", len(out.Recent))
	}
	var failed, trained int
	for _, raw := range out.Recent[0].Spans {
		var sp map[string]any
		if err := json.Unmarshal(raw, &sp); err != nil {
			t.Fatal(err)
		}
		if sp["name"] != "train" {
			continue
		}
		switch sp["outcome"] {
		case "failed":
			failed++
			if msg, _ := sp["error"].(string); !strings.Contains(msg, "unreachable") {
				t.Errorf("failed span error = %q, want the unreachable-bracket error", msg)
			}
			if _, ok := sp["iterations"]; ok {
				t.Errorf("failed span reports iterations: %s", raw)
			}
		case "trained":
			trained++
			var keys []string
			for k := range sp {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := []string{"duration_us", "infidelity", "iterations", "key", "name", "outcome", "seed_distance", "start_us"}
			if !reflect.DeepEqual(keys, want) {
				t.Errorf("trained span keys = %v, want %v", keys, want)
			}
		default:
			t.Errorf("unexpected train span outcome in %s", raw)
		}
	}
	if failed != 1 || trained == 0 {
		t.Fatalf("%d failed and %d trained train spans, want 1 and some", failed, trained)
	}
}

// TestMetricsCoherenceUnderLoad hammers concurrent compiles while other
// goroutines scrape /metrics, then checks the counters add up: requests
// in equals per-endpoint counts out, and every training inserted exactly
// one entry. Run under -race this also proves scrape/record safety.
func TestMetricsCoherenceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	// Warm the library so the hammer phase is fast (hits, not trainings).
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram}); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	const clients, perClient, scrapes = 4, 5, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				postCompile(t, ts.URL, CompileRequest{QASM: oneQubitProgram})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	exp := scrapeMetrics(t, ts.URL)
	sent := float64(1 + clients*perClient)
	if got := exp.sumSeries("accqoc_http_requests_total", `endpoint="/v1/compile"`); got != sent {
		t.Errorf("sum over codes of /v1/compile requests = %v, want %v", got, sent)
	}
	if got := exp.sumSeries("accqoc_http_request_duration_seconds_count", `endpoint="/v1/compile"`); got != sent {
		t.Errorf("latency histogram count = %v, want %v", got, sent)
	}
	trainings := exp.sumSeries("accqoc_store_trainings_total")
	inserts := exp.sumSeries("accqoc_store_inserts_total")
	failures := exp.sumSeries("accqoc_store_train_failures_total")
	if trainings != inserts+failures {
		t.Errorf("trainings (%v) != inserts (%v) + failures (%v)", trainings, inserts, failures)
	}
	if trainings <= 0 {
		t.Error("no trainings recorded")
	}
	if got := exp.samples["accqoc_http_in_flight"]; got != 0 {
		t.Errorf("in-flight gauge = %v after load drained", got)
	}
}

type rawResponse struct {
	header http.Header
	body   []byte
}

func postRaw(t *testing.T, base, qasm string) rawResponse {
	t.Helper()
	payload, err := json.Marshal(CompileRequest{QASM: qasm})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return rawResponse{header: resp.Header, body: body}
}

// TestTrainingObserverGroupSize3 pins the label cell a dim-8 (3-qubit)
// training observation lands in: the opt-in 3Q policies must show up in
// the convergence histograms as qubits="3", not fall through to a slow
// formatting path or get folded into another cell.
func TestTrainingObserverGroupSize3(t *testing.T) {
	ob := newObsState(4)
	ob.trainingObserver(3, 17, 1e-3, false)

	var buf strings.Builder
	if err := ob.reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`accqoc_grape_training_iterations_count{qubits="3"} 1`,
		`accqoc_grape_training_infidelity_count{qubits="3"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// No stray cells: the observation must not have touched 1Q/2Q.
	for _, series := range []string{
		`accqoc_grape_training_iterations_count{qubits="1"} 1`,
		`accqoc_grape_training_iterations_count{qubits="2"} 1`,
	} {
		if strings.Contains(text, series) {
			t.Errorf("dim-8 observation leaked into %s", series)
		}
	}
	if qubitsLabel(3) != "3" {
		t.Fatalf("qubitsLabel(3) = %q", qubitsLabel(3))
	}
}

// TestCircuitTraceSpans pins the circuit path's tail spans: after the
// schedule is assembled and validated, the response's latency and
// fidelity estimate is its own span, as the compile path's is.
func TestCircuitTraceSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	if _, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{QASM: oneQubitProgram}}); code != http.StatusOK {
		t.Fatalf("circuit status %d", code)
	}
	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var out struct {
		Recent []struct {
			Endpoint string `json:"endpoint"`
			Spans    []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) == 0 || out.Recent[0].Endpoint != "/v1/circuits/compile" {
		t.Fatalf("no circuit trace recorded: %+v", out.Recent)
	}
	stages := map[string]int{}
	for _, sp := range out.Recent[0].Spans {
		stages[sp.Name]++
	}
	for _, want := range []string{"prepare", "assemble", "validate", "estimate"} {
		if stages[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (got %v)", stages[want], want, stages)
		}
	}
}
