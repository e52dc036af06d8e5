// Package obs is the stdlib-only observability layer of the serving
// stack: a metrics registry (counters, gauges, fixed-bucket histograms)
// rendered in Prometheus text exposition format, per-request trace spans
// covering every stage of the compile pipeline, and a bounded flight
// recorder of recent and slowest request traces (trace.go).
//
// The paper's core claim is that pulse-compilation *cost* (GRAPE
// iterations) dominates and that similarity structure predicts it; this
// package makes those quantities observable per request in production —
// seed distances, warm-start iteration savings, singleflight coalescing,
// roll progress — instead of coarse totals inferred after the fact.
//
// Recording discipline: every instrument records through atomic
// operations on preallocated state — Counter.Inc, Gauge.Set and
// Histogram.Observe allocate nothing and take no locks, so they are safe
// on hot paths (the GRAPE optimizer loop, the store's singleflight).
// Label-value cells are allocated once on first use and cached; serving
// code holds the resolved cell (or resolves per request, off the
// numerical hot path). Scrape-time collectors (CollectCounters /
// CollectGauges) read external counter sources (store stats, registry
// status) only when /metrics is scraped, so an idle server pays nothing.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are allocation-free and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// meaningful; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates delta with a CAS loop (allocation-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket bounds are set at
// registration, Observe is a linear scan over ≤ a few dozen bounds plus
// three atomic adds — no locks, no allocations.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf bucket implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total observation count.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// ExponentialBuckets returns count bounds start, start·factor, ...
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are latency bounds in seconds spanning sub-millisecond
// library hits through multi-second cold GRAPE trainings.
func DurationBuckets() []float64 {
	return []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}
}

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Emit appends one dynamic sample during a scrape-time collection; the
// label values must match the family's label names in number and order.
type Emit func(value float64, labelValues ...string)

// family is one metric family: name, help, type, label names, and either
// static cells or a scrape-time collector.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	mu    sync.Mutex
	cells map[string]*cell
	order []string // cell keys in first-use order (render re-sorts)

	gaugeFn     func() float64           // GaugeFunc families
	collect     func(Emit)               // CollectCounters/CollectGauges families
	collectHist func() HistogramSnapshot // CollectHistogram families
}

type cell struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration panics on invalid or duplicate names
// (programmer error); recording methods never panic.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		cells:   map[string]*cell{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

const unlabeledKey = "\x00"

func cellKey(values []string) string {
	if len(values) == 0 {
		return unlabeledKey
	}
	return strings.Join(values, "\x00")
}

func (f *family) cellFor(values []string) *cell {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := cellKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.cells[key]; ok {
		return c
	}
	c := &cell{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case counterType:
		c.counter = &Counter{}
	case gaugeType:
		c.gauge = &Gauge{}
	case histogramType:
		c.hist = newHistogram(f.buckets)
	}
	f.cells[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterType, nil, nil).cellFor(nil).counter
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeType, nil, nil).cellFor(nil).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, gaugeType, nil, nil)
	f.gaugeFn = fn
}

// Histogram registers an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, histogramType, nil, buckets).cellFor(nil).hist
}

// CounterVec is a counter family with labels; With resolves (and caches)
// the cell for one label-value tuple.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterType, labels, nil)}
}

// With returns the counter cell for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.cellFor(labelValues).counter
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family; every cell shares
// the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, histogramType, labels, buckets)}
}

// With returns the histogram cell for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.cellFor(labelValues).hist
}

// CollectCounters registers a counter family whose samples are produced
// at scrape time by collect — the bridge for counters owned elsewhere
// (libstore hit/miss/eviction/coalesce stats per device namespace).
func (r *Registry) CollectCounters(name, help string, labels []string, collect func(Emit)) {
	f := r.register(name, help, counterType, labels, nil)
	f.collect = collect
}

// CollectGauges registers a gauge family whose samples are produced at
// scrape time by collect (roll progress, epoch age, entry counts).
func (r *Registry) CollectGauges(name, help string, labels []string, collect func(Emit)) {
	f := r.register(name, help, gaugeType, labels, nil)
	f.collect = collect
}

// HistogramSnapshot is a scrape-time histogram reading for
// CollectHistogram families: ascending upper bounds with an implicit +Inf
// bucket, non-cumulative per-bucket counts (len(Bounds)+1; any extra
// counts fold into +Inf), and the observation sum (NaN when the source
// does not track one, e.g. runtime/metrics pause histograms).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// CollectHistogram registers an unlabeled histogram family whose buckets
// are read at scrape time — the bridge for histograms owned elsewhere
// (the Go runtime's GC-pause distribution).
func (r *Registry) CollectHistogram(name, help string, collect func() HistogramSnapshot) {
	f := r.register(name, help, histogramType, nil, nil)
	f.collectHist = collect
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"}; extra appends one more pair (le for
// histogram buckets). Empty label sets render as "".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, samples sorted by
// label values for deterministic output.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "), f.name, f.typ); err != nil {
			return err
		}
		if err := f.writeSamples(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSamples(w io.Writer) error {
	if f.gaugeFn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return err
	}
	if f.collectHist != nil {
		h := f.collectHist()
		var cum uint64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(nil, nil, "le", formatValue(bound)), cum); err != nil {
				return err
			}
		}
		for i := len(h.Bounds); i < len(h.Counts); i++ {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(nil, nil, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", f.name, formatValue(h.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", f.name, cum)
		return err
	}
	if f.collect != nil {
		type sample struct {
			labels string
			value  float64
		}
		var samples []sample
		f.collect(func(value float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				return // arity bug in the collector; drop rather than emit garbage
			}
			samples = append(samples, sample{labels: labelString(f.labels, labelValues, "", ""), value: value})
		})
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
		return nil
	}

	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	cellsByKey := make(map[string]*cell, len(keys))
	for _, k := range keys {
		cellsByKey[k] = f.cells[k]
	}
	f.mu.Unlock()
	sort.Strings(keys)

	for _, k := range keys {
		c := cellsByKey[k]
		switch f.typ {
		case counterType:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.counter.Value()); err != nil {
				return err
			}
		case gaugeType:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatValue(c.gauge.Value())); err != nil {
				return err
			}
		case histogramType:
			h := c.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", formatValue(bound)), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatValue(h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, b.String())
	})
}
