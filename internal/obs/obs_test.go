package obs

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 111.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// le="1" is cumulative and inclusive: 0.5 and 1 both land in it.
	for _, want := range []string{
		`test_hist_bucket{le="1"} 2`,
		`test_hist_bucket{le="5"} 3`,
		`test_hist_bucket{le="10"} 4`,
		`test_hist_bucket{le="+Inf"} 5`,
		`test_hist_sum 111.5`,
		`test_hist_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecCellsAndSortedOutput(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "endpoint", "code")
	v.With("/b", "200").Add(2)
	v.With("/a", "200").Inc()
	v.With("/a", "500").Inc()
	if v.With("/b", "200") != v.With("/b", "200") {
		t.Fatal("cells not cached")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	iA := strings.Index(out, `req_total{endpoint="/a",code="200"} 1`)
	iA5 := strings.Index(out, `req_total{endpoint="/a",code="500"} 1`)
	iB := strings.Index(out, `req_total{endpoint="/b",code="200"} 2`)
	if iA < 0 || iA5 < 0 || iB < 0 {
		t.Fatalf("missing samples:\n%s", out)
	}
	if !(iA < iA5 && iA5 < iB) {
		t.Fatalf("samples not sorted by label values:\n%s", out)
	}
}

func TestGaugeFuncAndCollectors(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "queue depth", func() float64 { return 3 })
	r.CollectCounters("store_hits_total", "hits", []string{"device"}, func(emit Emit) {
		emit(7, "devB")
		emit(4, "devA")
	})
	r.CollectGauges("epoch_age", "age", []string{"device"}, func(emit Emit) {
		emit(1.25, "devA")
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"depth 3",
		`store_hits_total{device="devA"} 4`,
		`store_hits_total{device="devB"} 7`,
		`epoch_age{device="devA"} 1.25`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Collector samples sort by label value too.
	if strings.Index(out, `device="devA"} 4`) > strings.Index(out, `device="devB"} 7`) {
		t.Errorf("collector samples not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "escapes", "path").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong, want %q in:\n%s", want, b.String())
	}
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	for _, fn := range []func(){
		func() { r.Counter("dup_total", "x") },
		func() { r.Counter("9bad", "x") },
		func() { r.CounterVec("ok_total", "x", "bad-label") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE x_total counter\nx_total 1\n") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	h := r.Histogram("conc_hist", "x", []float64{0, 1, 2, 3})
	g := r.Gauge("conc_gauge", "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 5))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d gauge=%v", c.Value(), h.Count(), g.Value())
	}
}

func TestTraceSpansAndNilSafety(t *testing.T) {
	// Nil trace: everything is a no-op.
	var nilT *Trace
	sp := nilT.StartSpan("x")
	sp.End()
	nilT.SetMeta("d", 1, 2, 3)
	nilT.Finish(200, "")

	tr := NewTrace("rid-1", "/v1/compile")
	s1 := tr.StartSpan("parse")
	time.Sleep(time.Millisecond)
	s1.End()
	s2 := tr.StartSpan("train")
	s2.Key = "k"
	s2.Outcome = "trained"
	s2.Iterations = 42
	s2.End()
	dropped := tr.StartSpan("hit") // never ended: discarded
	_ = dropped
	tr.SetMeta("devA", 3, 2, 5)
	tr.Finish(200, "")
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Name != "parse" || tr.Spans[0].DurationUs <= 0 {
		t.Fatalf("parse span: %+v", tr.Spans[0])
	}
	if tr.Spans[1].Iterations != 42 || tr.Spans[1].Outcome != "trained" {
		t.Fatalf("train span: %+v", tr.Spans[1])
	}
	if tr.DurationMs <= 0 || tr.Status != 200 || tr.Device != "devA" {
		t.Fatalf("trace: %+v", tr)
	}
}

// TestSpanJSON pins a train span's encoding: a successful training
// serializes exactly as it did before spans could carry an error, and a
// failed one adds only the error text.
func TestSpanJSON(t *testing.T) {
	trained := &Span{Name: "train", StartUs: 12, DurationUs: 3400, Key: "k1", Outcome: "trained",
		Iterations: 42, Infidelity: 0.0025, SeedDistance: -1}
	failed := &Span{Name: "train", StartUs: 12, DurationUs: 3400, Key: "k2", Outcome: "failed",
		Error: "grape: target unreachable"}
	for _, c := range []struct {
		sp   *Span
		want string
	}{
		{trained, `{"name":"train","start_us":12,"duration_us":3400,"key":"k1","outcome":"trained","iterations":42,"infidelity":0.0025,"seed_distance":-1}`},
		{failed, `{"name":"train","start_us":12,"duration_us":3400,"key":"k2","outcome":"failed","error":"grape: target unreachable"}`},
	} {
		got, err := json.Marshal(c.sp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("span JSON\n got %s\nwant %s", got, c.want)
		}
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("rid", "/x")
	for i := 0; i < maxSpans+10; i++ {
		tr.StartSpan("s").End()
	}
	if len(tr.Spans) != maxSpans || tr.DroppedSpans != 10 {
		t.Fatalf("spans=%d dropped=%d", len(tr.Spans), tr.DroppedSpans)
	}
}

func TestRecorderRingAndSlowest(t *testing.T) {
	r := NewRecorder(3)
	mk := func(id string, ms float64) *Trace {
		tr := NewTrace(id, "/x")
		tr.DurationMs = ms
		return tr
	}
	r.Record(mk("a", 10))
	r.Record(mk("b", 50))
	r.Record(mk("c", 20))
	r.Record(mk("d", 5)) // evicts a from ring; too fast for slowest
	recent, slowest := r.Snapshot()
	gotRecent := []string{}
	for _, tr := range recent {
		gotRecent = append(gotRecent, tr.ID)
	}
	if want := "d,c,b"; strings.Join(gotRecent, ",") != want {
		t.Fatalf("recent = %v, want %s", gotRecent, want)
	}
	gotSlow := []string{}
	for _, tr := range slowest {
		gotSlow = append(gotSlow, tr.ID)
	}
	if want := "b,c,a"; strings.Join(gotSlow, ",") != want {
		t.Fatalf("slowest = %v, want %s", gotSlow, want)
	}
	// d (5ms) displaces a once capacity frees up? No: slowest is full at 3
	// with b(50),c(20),a(10); d(5) loses. Record a slower one.
	r.Record(mk("e", 100))
	_, slowest = r.Snapshot()
	if slowest[0].ID != "e" || len(slowest) != 3 {
		t.Fatalf("slowest after e: %v", slowest)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestContextThreading(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" || TraceFrom(ctx) != nil {
		t.Fatal("empty context should yield zero values")
	}
	tr := NewTrace("rid-9", "/x")
	ctx = WithTrace(WithRequestID(ctx, "rid-9"), tr)
	if RequestIDFrom(ctx) != "rid-9" || TraceFrom(ctx) != tr {
		t.Fatal("context round-trip failed")
	}
}
