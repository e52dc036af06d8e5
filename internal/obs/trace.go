package obs

// Per-request tracing and the flight recorder. A Trace is created by the
// server middleware for each request; pipeline stages open Spans on it
// (parse, queue, prepare, plan, per-group training, assemble, validate).
// The whole API is nil-safe: a nil *Trace hands out nil *Spans and every
// method on them is a no-op, so instrumented code never branches on
// "observability enabled" — it just calls through.
//
// Spans are appended to the trace at End(), not at StartSpan: a span the
// caller decides not to keep (library hits on the per-group path, which
// would bloat warm traces with thousands of no-op spans) is simply never
// ended, and garbage-collects with the stack frame.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans kept per trace; a pathological circuit with
// thousands of cold groups records the first maxSpans and counts the rest
// in DroppedSpans instead of holding every span alive in the recorder.
const maxSpans = 256

// Span is one timed stage of a request. Fields beyond the timing triple
// are optional stage-specific annotations set by the caller before End.
type Span struct {
	Name string `json:"name"`
	// StartUs is the span's start offset from the trace start; DurationUs
	// its length. Microseconds: compile stages range from ~10us parses to
	// multi-second trainings, and float64 keeps the JSON human-readable.
	StartUs    float64 `json:"start_us"`
	DurationUs float64 `json:"duration_us"`
	// Key is the canonical group key for per-group training spans.
	Key string `json:"key,omitempty"`
	// Outcome is the store outcome for training spans: "trained",
	// "joined" (coalesced behind a concurrent training), "hit", or
	// "failed" (the training, this request's or the one it joined,
	// returned an error; Error carries it).
	Outcome string `json:"outcome,omitempty"`
	// Error is the failed training's error text.
	Error string `json:"error,omitempty"`
	// Iterations is the optimizer iteration count for trained groups.
	Iterations int `json:"iterations,omitempty"`
	// Infidelity is the final 1-F of the trained pulse.
	Infidelity float64 `json:"infidelity,omitempty"`
	// SeedDistance is the similarity distance to the warm-start seed
	// (-1: trained cold, no seed admitted).
	SeedDistance float64 `json:"seed_distance,omitempty"`
	// Coalesced marks spans that waited on another request's training.
	Coalesced bool `json:"coalesced,omitempty"`

	trace *Trace
	start time.Time
}

// Trace is the record of one request through the pipeline.
type Trace struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Device   string `json:"device,omitempty"`
	Epoch    int    `json:"epoch,omitempty"`
	Qubits   int    `json:"qubits,omitempty"`
	Gates    int    `json:"gates,omitempty"`
	// Start is the wall-clock request arrival.
	Start time.Time `json:"start"`
	// DurationMs is the total request latency, set by Finish.
	DurationMs float64 `json:"duration_ms"`
	// Status is the HTTP status code of the response.
	Status int `json:"status"`
	// Error carries the failure message for non-2xx requests.
	Error string `json:"error,omitempty"`
	// Spans are the recorded stages in End order.
	Spans []*Span `json:"spans"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`

	mu    sync.Mutex
	begin time.Time // monotonic anchor for span offsets
}

// NewTrace starts a trace for one request.
func NewTrace(id, endpoint string) *Trace {
	now := time.Now()
	return &Trace{ID: id, Endpoint: endpoint, Start: now, begin: now}
}

// StartSpan opens a named span. The span is recorded only when End is
// called; dropping it unended discards it. Nil-safe.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		Name:    name,
		StartUs: float64(now.Sub(t.begin).Microseconds()),
		trace:   t,
		start:   now,
	}
}

// End closes the span and appends it to its trace. Nil-safe; End on an
// already-ended span double-appends, so call it exactly once.
func (sp *Span) End() {
	if sp == nil || sp.trace == nil {
		return
	}
	sp.DurationUs = float64(time.Since(sp.start).Microseconds())
	t := sp.trace
	sp.trace = nil
	t.mu.Lock()
	if len(t.Spans) < maxSpans {
		t.Spans = append(t.Spans, sp)
	} else {
		t.DroppedSpans++
	}
	t.mu.Unlock()
}

// SetMeta records the request's routing and size once known. Nil-safe.
func (t *Trace) SetMeta(device string, epoch, qubits, gates int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Device, t.Epoch, t.Qubits, t.Gates = device, epoch, qubits, gates
	t.mu.Unlock()
}

// Finish stamps the total duration and response status. Nil-safe.
func (t *Trace) Finish(status int, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.DurationMs = float64(time.Since(t.begin).Microseconds()) / 1e3
	t.Status = status
	t.Error = errMsg
	t.mu.Unlock()
}

// Recorder is the flight recorder: a ring buffer of the last N finished
// traces plus an insert-sorted list of the N slowest since boot.
type Recorder struct {
	mu      sync.Mutex
	ring    []*Trace
	next    int
	full    bool
	slowest []*Trace // descending DurationMs
	size    int
}

// NewRecorder returns a recorder keeping the last size traces and the
// size slowest.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = 64
	}
	return &Recorder{ring: make([]*Trace, size), size: size}
}

// Record files a finished trace. Nil recorder or nil trace is a no-op.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	if r.next == 0 {
		r.full = true
	}
	// Insert into slowest (descending) if it beats the current tail.
	if len(r.slowest) < r.size || t.DurationMs > r.slowest[len(r.slowest)-1].DurationMs {
		i := sort.Search(len(r.slowest), func(i int) bool {
			return r.slowest[i].DurationMs < t.DurationMs
		})
		r.slowest = append(r.slowest, nil)
		copy(r.slowest[i+1:], r.slowest[i:])
		r.slowest[i] = t
		if len(r.slowest) > r.size {
			r.slowest = r.slowest[:r.size]
		}
	}
}

// Snapshot returns the recent traces (newest first) and the slowest
// traces (slowest first).
func (r *Recorder) Snapshot() (recent, slowest []*Trace) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		for i := 0; i < len(r.ring); i++ {
			recent = append(recent, r.ring[(n-1-i+len(r.ring))%len(r.ring)])
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			recent = append(recent, r.ring[i])
		}
	}
	slowest = append(slowest, r.slowest...)
	return recent, slowest
}

// Request IDs: a per-process random prefix plus an atomic counter —
// unique across restarts without per-request entropy reads.
var (
	ridPrefix = func() string {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degrade to a time-derived prefix; IDs stay process-unique.
			binary.BigEndian.PutUint32(b[:4], uint32(time.Now().UnixNano()))
		}
		return hex.EncodeToString(b[:])
	}()
	ridCounter atomic.Uint64
)

// NewRequestID returns a process-unique request identifier.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", ridPrefix, ridCounter.Add(1))
}
