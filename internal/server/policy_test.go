package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/libstore"
	"accqoc/internal/qasm"
)

// Programs over the Linear(3) test device. The anchor h-gate rides along
// in every request so the miner's windows overlap; the cx program's 2Q
// group is the expensive entry the cost policy should protect.
const (
	anchorProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0],q[1];\nrz(0.2) q[1];\nh q[2];\n"
)

func churnProgram(i int) string {
	return fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nrz(%.2f) q[0];\nh q[2];\n", 0.15+0.07*float64(i))
}

// keysBySize partitions the store's current entries by qubit count.
func keysBySize(s *Server) (oneQ, twoQ []string) {
	for key, e := range s.Store().Snapshot().Entries {
		if e.NumQubits == 2 {
			twoQ = append(twoQ, key)
		} else {
			oneQ = append(oneQ, key)
		}
	}
	return
}

// TestPolicyDefaultEquivalence pins the policy layer's opt-in contract:
// explicit -cache-policy lru -prefetch=false is byte-identical to the
// zero config — same responses, same trained library, and none of the
// new JSON blocks (evict_policy, prefetch) on any endpoint.
func TestPolicyDefaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	base := New(Config{Compile: fastOpts(), Workers: 4})
	tsBase := httptest.NewServer(base.Handler())
	defer func() { tsBase.Close(); base.Close() }()
	explicit := New(Config{Compile: fastOpts(), Workers: 4, CachePolicy: "lru", EnablePrefetch: false})
	tsExplicit := httptest.NewServer(explicit.Handler())
	defer func() { tsExplicit.Close(); explicit.Close() }()

	respBase := postRaw(t, tsBase.URL, oneQubitProgram)
	respExplicit := postRaw(t, tsExplicit.URL, oneQubitProgram)

	var a, b CompileResponse
	if err := json.Unmarshal(respBase.body, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(respExplicit.body, &b); err != nil {
		t.Fatal(err)
	}
	a.CompileMillis, b.CompileMillis = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("responses diverge:\nbase     %+v\nexplicit %+v", a, b)
	}

	got := explicit.Store().Snapshot().Entries
	want := base.Store().Snapshot().Entries
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("store sizes diverge: %d vs %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("explicit-lru store missing %q", key)
		}
		if g.Iterations != w.Iterations || !reflect.DeepEqual(g.Pulse.Amps, w.Pulse.Amps) {
			t.Fatalf("entry %q not bit-identical across policy flags", key)
		}
	}

	// The additive JSON blocks stay off the wire under default flags.
	for _, ts := range []*httptest.Server{tsBase, tsExplicit} {
		for _, path := range []string{"/v1/library/usage", "/v1/library/stats"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var wire map[string]json.RawMessage
			if err := json.Unmarshal(raw, &wire); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"evict_policy", "prefetch"} {
				if _, ok := wire[key]; ok {
					t.Errorf("%s carries %q under default flags: %s", path, key, raw)
				}
			}
		}
	}
}

// TestPolicyConfigValidation pins the misconfiguration surface: a policy
// name the registry does not know refuses to serve.
func TestPolicyConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on an unknown cache policy")
		}
	}()
	New(Config{Compile: fastOpts(), CachePolicy: "mru"})
}

// TestCostPolicyProtectsExpensiveEntry is the tentpole's deterministic
// half: on a capacity-2 store under 1q churn, the cost-aware policy never
// evicts the 667-iteration 2Q entry, while the same workload under LRU
// throws it away immediately.
func TestCostPolicyProtectsExpensiveEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	run := func(policy string) (s *Server, ts *httptest.Server, twoQKey string) {
		s = New(Config{
			Compile:      fastOpts(),
			Workers:      4,
			StoreOptions: libstore.Options{Capacity: 2},
			CachePolicy:  policy,
		})
		ts = httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		// Train the expensive entry, then hit it once so the ledger scores
		// it (iterations × hits > 0); the tiebreak alone also protects it.
		for i := 0; i < 2; i++ {
			if _, code := postCompile(t, ts.URL, CompileRequest{QASM: anchorProgram}); code != http.StatusOK {
				t.Fatalf("anchor compile %d: status %d", i, code)
			}
		}
		_, twoQs := keysBySize(s)
		if len(twoQs) != 1 {
			t.Fatalf("anchor program produced %d 2Q entries, want 1", len(twoQs))
		}
		twoQKey = twoQs[0]
		// Churn distinct cheap 1q keys through the 2-entry store.
		for i := 0; i < 5; i++ {
			if _, code := postCompile(t, ts.URL, CompileRequest{QASM: churnProgram(i)}); code != http.StatusOK {
				t.Fatalf("churn compile %d: status %d", i, code)
			}
		}
		return s, ts, twoQKey
	}

	sCost, tsCost, costKey := run("cost")
	if !sCost.Store().Contains(costKey) {
		t.Fatalf("cost policy evicted the expensive 2Q entry %q", costKey)
	}
	warm, code := postCompile(t, tsCost.URL, CompileRequest{QASM: anchorProgram})
	if code != http.StatusOK || warm.TrainingIterations != 0 {
		t.Fatalf("anchor re-request retrained under cost policy: %+v (status %d)", warm, code)
	}

	sLRU, _, lruKey := run("lru")
	if sLRU.Store().Contains(lruKey) {
		t.Fatalf("LRU kept the 2Q entry %q through 1q churn; the workload no longer stresses the policy", lruKey)
	}

	// The counters and their wire surfaces agree: every churn eviction was
	// a cost pick or an LRU fallback, and the expensive key was never the
	// victim.
	u := getUsage(t, tsCost.URL, "")
	if u.EvictPolicy == nil || u.EvictPolicy.CostPicks == 0 {
		t.Fatalf("usage evict_policy = %+v, want cost picks > 0", u.EvictPolicy)
	}
	if u.EvictPolicy.CostPicks+u.EvictPolicy.LRUFallbacks != u.Regret.Evictions {
		t.Errorf("policy decisions %d+%d != evictions %d",
			u.EvictPolicy.CostPicks, u.EvictPolicy.LRUFallbacks, u.Regret.Evictions)
	}
	st := getStats(t, tsCost.URL)
	if st.EvictPolicy == nil || *st.EvictPolicy != *u.EvictPolicy {
		t.Errorf("stats evict_policy = %+v, usage says %+v", st.EvictPolicy, u.EvictPolicy)
	}
	exp := scrapeMetrics(t, tsCost.URL)
	if got := exp.sumSeries("accqoc_evict_policy_cost_picks_total"); got != float64(u.EvictPolicy.CostPicks) {
		t.Errorf("accqoc_evict_policy_cost_picks_total = %v, report says %d", got, u.EvictPolicy.CostPicks)
	}
	if got := exp.sumSeries("accqoc_evict_policy_lru_fallbacks_total"); got != float64(u.EvictPolicy.LRUFallbacks) {
		t.Errorf("accqoc_evict_policy_lru_fallbacks_total = %v, report says %d", got, u.EvictPolicy.LRUFallbacks)
	}
}

// TestPrefetchSpeculativeTraining drives the predict→train cycle
// deterministically: evict a co-occurring key through churn, then let one
// idle cycle re-train it from its retained target, and check the
// exactly-once accounting across the request path and the speculative
// path.
func TestPrefetchSpeculativeTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s := New(Config{
		Compile:          fastOpts(),
		Workers:          4,
		StoreOptions:     libstore.Options{Capacity: 2},
		EnablePrefetch:   true,
		PrefetchInterval: time.Hour, // the test drives RunOnce itself
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	var requestTrained int64
	post := func(src string) {
		t.Helper()
		out, code := postCompile(t, ts.URL, CompileRequest{QASM: src})
		if code != http.StatusOK {
			t.Fatalf("compile status %d", code)
		}
		requestTrained += int64(out.UncoveredUnique)
	}

	// Two anchor requests: the cx group and the h anchor co-occur twice in
	// the miner's ring. Then 1q churn pushes the cx entry out of the
	// 2-entry store (LRU policy here — eviction pressure is the point).
	post(anchorProgram)
	post(anchorProgram)
	_, twoQs := keysBySize(s)
	if len(twoQs) != 1 {
		t.Fatalf("anchor program left %d 2Q entries, want 1", len(twoQs))
	}
	cxKey := twoQs[0]
	post(churnProgram(0))
	post(churnProgram(1))
	if s.Store().Contains(cxKey) {
		t.Fatal("churn did not evict the 2Q entry; prefetch has nothing to do")
	}

	// One idle cycle: the window ({rz1, h}) votes for the evicted cx key
	// through its co-occurrence with the anchor, the target cache still
	// holds its unitary, and the pool is idle — so it re-trains.
	s.Prefetcher().RunOnce()
	if !s.Store().Contains(cxKey) {
		t.Fatalf("idle cycle did not re-train the predicted miss %q; prefetch stats %+v",
			cxKey, s.Prefetcher().Stats())
	}
	pstats := s.Prefetcher().Stats()
	if pstats.Trained != 1 || pstats.Predicted == 0 {
		t.Fatalf("prefetch stats = %+v, want exactly 1 trained from >0 predictions", pstats)
	}
	if pstats.Iterations <= 0 {
		t.Errorf("speculative training reported %d iterations", pstats.Iterations)
	}

	// The re-request is served from the speculation, not a retrain: the
	// 2Q group costs hundreds of iterations, so any request-path training
	// now is at most the cheap anchor's.
	out, code := postCompile(t, ts.URL, CompileRequest{QASM: anchorProgram})
	if code != http.StatusOK {
		t.Fatalf("re-request status %d", code)
	}
	requestTrained += int64(out.UncoveredUnique)
	if int64(out.TrainingIterations) >= pstats.Iterations {
		t.Errorf("re-request trained %d iterations, speculation paid %d — prefetch did not serve it",
			out.TrainingIterations, pstats.Iterations)
	}

	// Exactly-once oracle: every training ran through the same
	// singleflight, so the ledger's total is the request-path sum plus the
	// speculative trainings, with nothing counted twice.
	u := getUsage(t, ts.URL, "?n=1000")
	if u.Totals.Trainings != requestTrained+pstats.Trained {
		t.Errorf("ledger trainings = %d, want request-path %d + speculative %d",
			u.Totals.Trainings, requestTrained, pstats.Trained)
	}
	if u.Prefetch == nil || u.Prefetch.Trained != pstats.Trained {
		t.Errorf("usage prefetch block = %+v, driver says %+v", u.Prefetch, pstats)
	}
	st := getStats(t, ts.URL)
	if st.Server.Prefetch == nil || st.Server.Prefetch.Trained != pstats.Trained {
		t.Errorf("stats prefetch block = %+v, driver says %+v", st.Server.Prefetch, pstats)
	}
	exp := scrapeMetrics(t, ts.URL)
	if got := exp.sumSeries("accqoc_prefetch_trained_total"); got != float64(pstats.Trained) {
		t.Errorf("accqoc_prefetch_trained_total = %v, driver says %d", got, pstats.Trained)
	}
	if got := exp.sumSeries("accqoc_prefetch_iterations_total"); got != float64(pstats.Iterations) {
		t.Errorf("accqoc_prefetch_iterations_total = %v, driver says %d", got, pstats.Iterations)
	}
}

// TestPolicyPrefetchRace is the -race workout for the whole policy half:
// concurrent compiles over a capacity-2 cost-policy store, a goroutine
// hammering idle cycles, concurrent scrapes — then the exactly-once
// iteration oracle and the policy-decision conservation law.
func TestPolicyPrefetchRace(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s := New(Config{
		Compile:          fastOpts(),
		Workers:          4,
		StoreOptions:     libstore.Options{Capacity: 2},
		CachePolicy:      "cost",
		EnablePrefetch:   true,
		PrefetchInterval: time.Hour,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	var requestIters atomic.Int64
	stop := make(chan struct{})
	var auxWG sync.WaitGroup
	auxWG.Add(2)
	go func() { // idle-cycle driver racing the request traffic
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				s.Prefetcher().RunOnce()
			}
		}
	}()
	go func() { // scrape pressure on every policy surface
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrapeMetrics(t, ts.URL)
			for _, path := range []string{"/v1/library/usage?n=50", "/v1/library/stats"} {
				resp, err := http.Get(ts.URL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	// All-1q traffic: the oracle needs eviction pressure and speculative
	// trainings racing real ones, not expensive 2Q GRAPE runs (the 2Q
	// protection story is TestCostPolicyProtectsExpensiveEntry's, and this
	// box may be a single core).
	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := churnProgram((w + i) % 5)
				out, code := postCompile(t, ts.URL, CompileRequest{QASM: src})
				if code != http.StatusOK {
					t.Errorf("worker %d compile %d: status %d", w, i, code)
					return
				}
				requestIters.Add(int64(out.TrainingIterations))
			}
		}()
	}
	wg.Wait()
	close(stop)
	auxWG.Wait()

	u := getUsage(t, ts.URL, "?n=1000")
	pstats := s.Prefetcher().Stats()
	// Exactly-once: the singleflight means every GRAPE iteration in the
	// ledger was paid by exactly one response or one speculation.
	if u.Totals.Iterations != requestIters.Load()+pstats.Iterations {
		t.Errorf("ledger iterations = %d, want request-path %d + speculative %d",
			u.Totals.Iterations, requestIters.Load(), pstats.Iterations)
	}
	// Conservation: the policy ruled on every eviction, one way or the
	// other.
	if u.EvictPolicy == nil {
		t.Fatal("cost-policy server reported no evict_policy block")
	}
	if u.EvictPolicy.CostPicks+u.EvictPolicy.LRUFallbacks != u.Regret.Evictions {
		t.Errorf("policy decisions %d+%d != evictions %d",
			u.EvictPolicy.CostPicks, u.EvictPolicy.LRUFallbacks, u.Regret.Evictions)
	}
	if u.Regret.Evictions == 0 {
		t.Error("capacity-2 store under 5-key churn never evicted")
	}
}

// replayOutcome is one arm's measurement of the capacity-constrained
// replay in BenchmarkPolicyReplay.
type replayOutcome struct {
	regretIters   int64 // ledger regret: iterations of evicted-then-missed entries
	coldTrainings int64 // request-path trainings (sum of per-response uncovered groups)
	requestIters  int64 // request-path GRAPE iterations
	prefetched    int64 // speculative trainings (cost+prefetch arm only)
}

// runPolicyReplay replays the skewed workload against one policy arm:
// rounds of [expensive-anchor, churn ×3] over a 3-entry store, where LRU
// evicts the expensive 2Q group every round and re-trains it on the next
// anchor request. GRAPE is seeded, so request-path iteration counts are
// deterministic per arm; the prediction ranking uses wall-clock
// inter-arrival stats, so exactly which churn key a speculation picks may
// vary — the assertions only use the deterministic margins.
func runPolicyReplay(tb testing.TB, rounds int, costPolicy, prefetch bool) replayOutcome {
	policy := "lru"
	if costPolicy {
		policy = "cost"
	}
	s := New(Config{
		Compile:          fastOpts(),
		Workers:          1,
		StoreOptions:     libstore.Options{Capacity: 4},
		CachePolicy:      policy,
		EnablePrefetch:   prefetch,
		PrefetchInterval: time.Hour, // driven manually between requests
	})
	defer s.Close()

	anchor, err := qasm.Parse(anchorProgram)
	if err != nil {
		tb.Fatal(err)
	}
	churn := make([]*circuit.Circuit, 3)
	for i := range churn {
		p, perr := qasm.Parse(churnProgram(i))
		if perr != nil {
			tb.Fatal(perr)
		}
		churn[i] = p
	}

	var out replayOutcome
	serve := func(prog *circuit.Circuit) {
		res, derr := s.svc.Do(&compilesvc.Request{Prog: prog, NS: s.defaultNS()})
		if derr != nil {
			tb.Fatal(derr)
		}
		out.coldTrainings += int64(res.Resp.UncoveredUnique)
		out.requestIters += int64(res.Resp.TrainingIterations)
		if prefetch {
			s.Prefetcher().RunOnce()
		}
	}
	serve(anchor) // warm the anchor once outside the measured rounds
	out = replayOutcome{}
	for r := 0; r < rounds; r++ {
		serve(anchor)
		for i := 0; i < 3; i++ {
			serve(churn[i])
		}
	}
	ledger, err := s.Registry().UsageLedger("")
	if err != nil {
		tb.Fatal(err)
	}
	out.regretIters = ledger.Report(0).Regret.Iterations
	if prefetch {
		out.prefetched = s.Prefetcher().Stats().Trained
	}
	return out
}

// runColdStartReplay measures the prefetcher's coverage win: warm the
// 5-key working set at ample capacity, invalidate everything with a
// calibration epoch (no roll driver — the bench models an invalidation
// with nothing re-covering the set), then replay two rounds. Without
// prefetch every key re-trains on the request path; with it, each idle
// cycle between requests re-covers one predicted key off-path, so
// request-path cold trainings must come out strictly lower. The store has
// slack here, so every speculation adds coverage instead of swapping it.
func runColdStartReplay(tb testing.TB, prefetch bool) replayOutcome {
	s := New(Config{
		Compile:          fastOpts(),
		Workers:          1,
		StoreOptions:     libstore.Options{Capacity: 8},
		CachePolicy:      "cost",
		EnablePrefetch:   prefetch,
		PrefetchInterval: time.Hour,
	})
	defer s.Close()

	anchor, err := qasm.Parse(anchorProgram)
	if err != nil {
		tb.Fatal(err)
	}
	churn := make([]*circuit.Circuit, 3)
	for i := range churn {
		p, perr := qasm.Parse(churnProgram(i))
		if perr != nil {
			tb.Fatal(perr)
		}
		churn[i] = p
	}
	var out replayOutcome
	serve := func(prog *circuit.Circuit) {
		res, derr := s.svc.Do(&compilesvc.Request{Prog: prog, NS: s.defaultNS()})
		if derr != nil {
			tb.Fatal(derr)
		}
		out.coldTrainings += int64(res.Resp.UncoveredUnique)
		out.requestIters += int64(res.Resp.TrainingIterations)
		if prefetch {
			s.Prefetcher().RunOnce()
		}
	}
	round := func() {
		serve(anchor)
		for i := 0; i < 3; i++ {
			serve(churn[i])
		}
	}
	round() // warm the working set (capacity has slack; nothing evicts)

	// The invalidation: a drifted calibration opens an empty-store epoch.
	// The ledger, its history ring, and the target cache are epoch-stable,
	// so the prefetcher knows exactly what was hot and how to re-train it.
	roll, err := s.Registry().Calibrate("", devreg.CalibrationUpdate{DriftPct: 2})
	if err != nil {
		tb.Fatal(err)
	}
	roll.Finish()

	out = replayOutcome{}
	if prefetch {
		// The idle gap after the calibration: the ticker would fire here.
		s.Prefetcher().RunOnce()
	}
	round()
	round()
	if prefetch {
		out.prefetched = s.Prefetcher().Stats().Trained
	}
	return out
}

// BenchmarkPolicyReplay is the acceptance replay committed to
// BENCH_policy.json, in two halves. eviction: the skewed,
// capacity-constrained workload under plain LRU, the cost-aware policy,
// and cost+prefetch — the cost arms must beat LRU on both
// regret-iterations and request-path cold trainings. coldstart: the
// post-calibration cold store, where idle-cycle speculation must strictly
// cut request-path cold trainings. Both improvements are asserted, not
// just reported.
func BenchmarkPolicyReplay(b *testing.B) {
	b.Run("eviction", func(b *testing.B) {
		const rounds = 6
		for i := 0; i < b.N; i++ {
			lru := runPolicyReplay(b, rounds, false, false)
			cost := runPolicyReplay(b, rounds, true, false)
			both := runPolicyReplay(b, rounds, true, true)
			for name, arm := range map[string]replayOutcome{"cost": cost, "cost+prefetch": both} {
				if arm.regretIters >= lru.regretIters {
					b.Errorf("%s regret-iterations %d, LRU %d — want strictly lower", name, arm.regretIters, lru.regretIters)
				}
				if arm.coldTrainings >= lru.coldTrainings {
					b.Errorf("%s cold trainings %d, LRU %d — want strictly lower", name, arm.coldTrainings, lru.coldTrainings)
				}
			}
			b.ReportMetric(float64(lru.regretIters), "lru-regret-iters/op")
			b.ReportMetric(float64(cost.regretIters), "cost-regret-iters/op")
			b.ReportMetric(float64(both.regretIters), "prefetch-regret-iters/op")
			b.ReportMetric(float64(lru.coldTrainings), "lru-cold-trainings/op")
			b.ReportMetric(float64(cost.coldTrainings), "cost-cold-trainings/op")
			b.ReportMetric(float64(both.coldTrainings), "prefetch-cold-trainings/op")
			b.ReportMetric(float64(both.prefetched), "prefetch-speculations/op")
		}
	})
	b.Run("coldstart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plain := runColdStartReplay(b, false)
			pre := runColdStartReplay(b, true)
			if pre.coldTrainings >= plain.coldTrainings {
				b.Errorf("prefetch cold trainings %d, plain %d — want strictly lower", pre.coldTrainings, plain.coldTrainings)
			}
			// Request-path iterations also drop, but the margin depends on
			// which entries are around to warm-seed from, so it is reported
			// rather than asserted.
			b.ReportMetric(float64(plain.coldTrainings), "plain-cold-trainings/op")
			b.ReportMetric(float64(pre.coldTrainings), "prefetch-cold-trainings/op")
			b.ReportMetric(float64(plain.requestIters), "plain-request-iters/op")
			b.ReportMetric(float64(pre.requestIters), "prefetch-request-iters/op")
			b.ReportMetric(float64(pre.prefetched), "prefetch-speculations/op")
		}
	})
}
