package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"testing"

	"accqoc"
	"accqoc/internal/compilesvc"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/workload"
)

func postCircuit(t *testing.T, url string, req CircuitRequest) (*CircuitResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/circuits/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, resp.StatusCode
	}
	var out CircuitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

// checkWireSchedule asserts every schedule invariant observable from the
// wire alone: slots sorted by start, per-qubit exclusivity, and the
// two-sided makespan (the client-side shadow of accqoc.Schedule.Validate,
// which the server runs as its conformance oracle before answering).
func checkWireSchedule(t *testing.T, cr *CircuitResponse) {
	t.Helper()
	if cr.MakespanNs != cr.Compile.QOCLatencyNs {
		t.Fatalf("makespan %v disagrees with compile latency %v", cr.MakespanNs, cr.Compile.QOCLatencyNs)
	}
	if len(cr.Schedule) != cr.Compile.TotalGroups {
		t.Fatalf("schedule has %d slots for %d groups", len(cr.Schedule), cr.Compile.TotalGroups)
	}
	type span struct{ s, e float64 }
	byQubit := map[int][]span{}
	var maxEnd float64
	for i, sp := range cr.Schedule {
		if i > 0 && sp.StartNs < cr.Schedule[i-1].StartNs {
			t.Fatalf("schedule not sorted by start time at slot %d", i)
		}
		if sp.DurationNs < 0 || sp.StartNs < 0 {
			t.Fatalf("negative time in slot %d: %+v", i, sp)
		}
		end := sp.StartNs + sp.DurationNs
		if end > maxEnd {
			maxEnd = end
		}
		for _, q := range sp.Qubits {
			byQubit[q] = append(byQubit[q], span{sp.StartNs, end})
		}
	}
	for q, spans := range byQubit {
		sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e-1e-9 {
				t.Fatalf("overlapping slots on qubit %d", q)
			}
		}
	}
	if math.Abs(maxEnd-cr.MakespanNs) > 1e-9 {
		t.Fatalf("makespan %v disagrees with last slot end %v", cr.MakespanNs, maxEnd)
	}
}

// TestCircuitEndpointEndToEnd is the tentpole demo: a QASM program with
// one- and two-qubit groups goes in, a validated scheduled pulse program
// comes out; the second submission is served entirely warm with the same
// schedule.
func TestCircuitEndpointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)

	cold, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{Workload: "qft:2"}})
	if code != http.StatusOK {
		t.Fatalf("cold status %d", code)
	}
	if cold.Compile.WarmServed || cold.Compile.UncoveredUnique == 0 {
		t.Fatalf("cold circuit reported warm: %+v", cold.Compile)
	}
	if cold.MakespanNs <= 0 || cold.Compile.GateLatencyNs <= 0 {
		t.Fatalf("degenerate latencies: %+v", cold.Compile)
	}
	checkWireSchedule(t, cold)
	for _, sp := range cold.Schedule {
		if sp.Waveform == "" && cold.Compile.FailedGroups == 0 {
			t.Fatalf("trained slot missing waveform ref: %+v", sp)
		}
	}

	warm, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{Workload: "qft:2"}})
	if code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if !warm.Compile.WarmServed || warm.Compile.CoverageRate != 1 {
		t.Fatalf("second circuit not warm: %+v", warm.Compile)
	}
	if warm.MakespanNs != cold.MakespanNs {
		t.Fatalf("warm makespan %v differs from cold %v", warm.MakespanNs, cold.MakespanNs)
	}
	checkWireSchedule(t, warm)

	// Warm slots reference the same waveforms the cold request trained.
	for i := range warm.Schedule {
		if warm.Schedule[i].Waveform != cold.Schedule[i].Waveform {
			t.Fatalf("slot %d waveform ref changed across requests", i)
		}
	}

	// Inlined waveforms resolve every reference.
	full, code := postCircuit(t, ts.URL, CircuitRequest{
		CompileRequest: CompileRequest{Workload: "qft:2"}, IncludeWaveforms: true,
	})
	if code != http.StatusOK {
		t.Fatalf("include_waveforms status %d", code)
	}
	for _, sp := range full.Schedule {
		if sp.Waveform == "" {
			continue
		}
		p, ok := full.Waveforms[sp.Waveform]
		if !ok {
			t.Fatalf("waveform %s referenced but not inlined", sp.Waveform)
		}
		if p.Duration() != sp.DurationNs {
			t.Fatalf("inlined waveform duration %v disagrees with slot %v", p.Duration(), sp.DurationNs)
		}
	}
}

// TestCircuitEmptyProgram: a declared register with no gates is a legal
// program — an empty, zero-makespan schedule, coverage 1.
func TestCircuitEmptyProgram(t *testing.T) {
	_, ts := newTestServer(t)
	resp, code := postCircuit(t, ts.URL, CircuitRequest{
		CompileRequest: CompileRequest{QASM: "OPENQASM 2.0;\nqreg q[2];\n"},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Schedule) != 0 || resp.MakespanNs != 0 || resp.Compile.CoverageRate != 1 {
		t.Fatalf("empty program response: %+v", resp)
	}
}

// TestCircuitRequestValidation mirrors the per-group endpoint's input
// handling: bad bodies and bad programs are 400s, never 500s.
func TestCircuitRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []CircuitRequest{
		{},
		{CompileRequest: CompileRequest{QASM: "x", Workload: "qft:2"}},
		{CompileRequest: CompileRequest{QASM: "qreg q[-1];"}},
		{CompileRequest: CompileRequest{Workload: "warp:9"}},
		{CompileRequest: CompileRequest{QASM: "OPENQASM 2.0;\nqreg q[1];", Device: "nope"}},
	}
	for i, req := range cases {
		if _, code := postCircuit(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/circuits/compile", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

// circuitResponseKeys pins the new endpoint's wire format, the same way
// PR 4 pinned the legacy /v1/compile key set.
var (
	circuitResponseKeys = []string{"compile", "makespan_ns", "schedule"}
	scheduleSlotKeys    = []string{"group", "qubits", "start_ns", "duration_ns", "waveform"}
)

// TestCircuitWireFormatPinned pins POST /v1/circuits/compile's JSON key
// set: the top level, the embedded compile block (which must stay exactly
// the legacy key set for the default device), and the schedule slots.
func TestCircuitWireFormatPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/circuits/compile", CircuitRequest{
		CompileRequest: CompileRequest{QASM: rxAProgram},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keysOf := func(obj json.RawMessage) []string {
		var mm map[string]json.RawMessage
		if err := json.Unmarshal(obj, &mm); err != nil {
			t.Fatal(err)
		}
		ks := make([]string, 0, len(mm))
		for k := range mm {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	sortedCopy := func(ks []string) []string {
		out := append([]string(nil), ks...)
		sort.Strings(out)
		return out
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(sortedCopy(circuitResponseKeys)) {
		t.Fatalf("circuit response keys changed:\n got %v\nwant %v", got, circuitResponseKeys)
	}
	// The embedded compile block keeps the exact legacy key set when no
	// device is routed and no calibration has happened.
	if got := keysOf(m["compile"]); fmt.Sprint(got) != fmt.Sprint(sortedCopy(legacyCompileResponseKeys)) {
		t.Fatalf("embedded compile keys changed:\n got %v\nwant %v", got, legacyCompileResponseKeys)
	}
	var slots []json.RawMessage
	if err := json.Unmarshal(m["schedule"], &slots); err != nil {
		t.Fatal(err)
	}
	if len(slots) == 0 {
		t.Fatal("no schedule slots")
	}
	if got := keysOf(slots[0]); fmt.Sprint(got) != fmt.Sprint(sortedCopy(scheduleSlotKeys)) {
		t.Fatalf("schedule slot keys changed:\n got %v\nwant %v", got, scheduleSlotKeys)
	}
}

// TestCircuitPropertyRandomPrograms is the property layer: randomized
// circuits (qasmgen's suite-mix generator) through the endpoint must
// produce wire-valid schedules, and — with identical libraries — the
// batch BuildSchedule path must produce a Validate-clean schedule with
// exactly the server's makespan.
func TestCircuitPropertyRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)

	for seed := int64(1); seed <= 3; seed++ {
		spec := fmt.Sprintf("random:3:8:%d", seed)
		got, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{Workload: spec}})
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		checkWireSchedule(t, got)

		// Batch reference over the identical library: snapshot the store
		// the server just trained into a batch compiler and schedule the
		// same program.
		prog, err := workload.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		comp := accqoc.New(fastOpts())
		comp.SetLibrary(s.Store().Snapshot())
		sched, err := comp.BuildSchedule(prog.Circuit)
		if err != nil {
			t.Fatalf("seed %d: batch schedule: %v", seed, err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("seed %d: batch schedule invalid: %v", seed, err)
		}
		if sched.Result.UncoveredUnique != 0 {
			t.Fatalf("seed %d: batch compile trained %d groups against the server's library",
				seed, sched.Result.UncoveredUnique)
		}
		if sched.MakespanNs != got.MakespanNs {
			t.Fatalf("seed %d: batch makespan %v != server makespan %v",
				seed, sched.MakespanNs, got.MakespanNs)
		}
	}
}

// countingHook wraps the namespace's real store hook (the seed index) and
// counts EntryAdded calls per key — the exactly-once training probe of
// the race test. Adds arrive under the store's lock from concurrent
// workers while the test reads the counts, so the counter takes its own
// mutex.
type countingHook struct {
	inner libstore.Hook
	mu    sync.Mutex
	adds  map[string]int
}

func (h *countingHook) EntryAdded(e *precompile.Entry) {
	h.mu.Lock()
	h.adds[e.Key]++
	h.mu.Unlock()
	if h.inner != nil {
		h.inner.EntryAdded(e)
	}
}

func (h *countingHook) EntryRemoved(key string) {
	if h.inner != nil {
		h.inner.EntryRemoved(key)
	}
}

// TestCircuitConcurrentSharedGroupsTrainOnce is the coalescing guarantee
// under -race: concurrent circuit compiles whose programs share uncovered
// groups must train each unique group exactly once (counted at the store
// mutation hook), fail zero requests, and leave the store and seed index
// coherent.
func TestCircuitConcurrentSharedGroupsTrainOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := newTestServer(t)
	ns := s.defaultNS()
	hook := &countingHook{inner: ns.Seeds, adds: map[string]int{}}
	ns.Store.SetHook(hook)

	// Two programs sharing the rx(0.5) group; three unique groups total.
	progA := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.5) q[0];\nrx(0.9) q[1];\n"
	progB := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.5) q[0];\nrx(1.3) q[1];\n"

	const perProgram = 4
	var wg sync.WaitGroup
	makespans := make([]float64, 2*perProgram)
	for i := 0; i < 2*perProgram; i++ {
		prog := progA
		if i%2 == 1 {
			prog = progB
		}
		wg.Add(1)
		go func(i int, prog string) {
			defer wg.Done()
			resp, code := postCircuit(t, ts.URL, CircuitRequest{CompileRequest: CompileRequest{QASM: prog}})
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			if resp.Compile.FailedGroups != 0 {
				t.Errorf("request %d: failed groups: %+v", i, resp.Compile)
			}
			checkWireSchedule(t, resp)
			makespans[i] = resp.MakespanNs
		}(i, prog)
	}
	wg.Wait()

	// Exactly-once per unique group, at the mutation hook.
	hook.mu.Lock()
	for key, n := range hook.adds {
		if n != 1 {
			t.Errorf("group %.24s… trained %d times, want 1", key, n)
		}
	}
	added := len(hook.adds)
	hook.mu.Unlock()
	if added != 3 {
		t.Fatalf("%d unique groups trained, want 3", added)
	}
	st := s.Store().Stats()
	if st.Trainings != 3 || st.TrainFailures != 0 {
		t.Fatalf("store ran %d trainings (%d failures), want exactly 3 clean",
			st.Trainings, st.TrainFailures)
	}
	if st.Entries != 3 {
		t.Fatalf("store holds %d entries, want 3", st.Entries)
	}
	if ns.Seeds.Stats().Entries != 3 {
		t.Fatalf("seed index holds %d entries, store 3 — hook chain broken", ns.Seeds.Stats().Entries)
	}
	// Identical programs agree on their makespan regardless of which
	// request paid for the training.
	for i := 2; i < len(makespans); i += 2 {
		if makespans[i] != makespans[0] {
			t.Fatalf("program A makespans diverge: %v vs %v", makespans[i], makespans[0])
		}
	}
	for i := 3; i < len(makespans); i += 2 {
		if makespans[i] != makespans[1] {
			t.Fatalf("program B makespans diverge: %v vs %v", makespans[i], makespans[1])
		}
	}
	st2 := getStats(t, ts.URL)
	if st2.Server.Failures != 0 {
		t.Fatalf("server reported %d failures", st2.Server.Failures)
	}
}

// TestWaveformRefTracksPulseContent pins the content-address semantics:
// refs follow the waveform bytes, not the group key, so a retrained
// pulse (a new calibration epoch, a different device's physics) can
// never alias its predecessor in a client-side waveform cache.
func TestWaveformRefTracksPulseContent(t *testing.T) {
	p1 := pulse.New([]string{"x0", "y0"}, 4, 2)
	p1.Amps[0][0] = 0.5
	p2 := p1.Clone()
	p2.Amps[0][0] = 0.6 // same key, drifted waveform (what an epoch roll produces)
	a := compilesvc.WaveformRef(&precompile.Entry{Key: "k", Pulse: p1})
	b := compilesvc.WaveformRef(&precompile.Entry{Key: "k", Pulse: p2})
	c := compilesvc.WaveformRef(&precompile.Entry{Key: "other-key", Pulse: p1.Clone()})
	if a == b {
		t.Fatal("refs alias two different waveforms under one key")
	}
	if a != c {
		t.Fatal("identical waveforms should share a ref regardless of key")
	}
}
