package server

// This file is the server's observability surface: the obsState bundle
// wires the internal/obs registry into every layer of the stack —
// per-endpoint/per-device latency histograms and request counters
// (middleware), GRAPE convergence histograms (grape/precompile hooks),
// the seed-distance histogram (seedindex observer via devreg), per-device
// store/roll/epoch collectors read from the device registry at scrape
// time — plus the request flight recorder behind GET /debug/requests.
// None of it feeds back into serving decisions: responses and trained
// pulses do not depend on what is recorded here.

import (
	"net/http"
	"strconv"
	"time"

	"accqoc/internal/devreg"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
)

// obsState bundles the server's metric instruments and flight recorder.
type obsState struct {
	reg      *obs.Registry
	recorder *obs.Recorder

	httpRequests  *obs.CounterVec // endpoint, code
	httpLatency   *obs.HistogramVec
	inFlight      *obs.Gauge
	deviceLatency *obs.HistogramVec // compile latency by device

	trainIters      *obs.HistogramVec // qubits
	trainInfidelity *obs.HistogramVec // qubits
	optIters        *obs.Counter
	stepNorm        *obs.Histogram
	seedDistance    *obs.Histogram
	seedLookups     *obs.CounterVec // admitted
}

func newObsState(recorderSize int) *obsState {
	r := obs.NewRegistry()
	ob := &obsState{
		reg:      r,
		recorder: obs.NewRecorder(recorderSize),

		httpRequests: r.CounterVec("accqoc_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "code"),
		httpLatency: r.HistogramVec("accqoc_http_request_duration_seconds",
			"HTTP request latency by endpoint.",
			obs.DurationBuckets(), "endpoint"),
		inFlight: r.Gauge("accqoc_http_in_flight",
			"Requests currently being served."),
		deviceLatency: r.HistogramVec("accqoc_compile_duration_seconds",
			"Compile request latency by resolved device.",
			obs.DurationBuckets(), "device"),

		trainIters: r.HistogramVec("accqoc_grape_training_iterations",
			"Summed optimizer iterations per completed GRAPE training, by group size.",
			obs.ExponentialBuckets(1, 2, 14), "qubits"),
		trainInfidelity: r.HistogramVec("accqoc_grape_training_infidelity",
			"Final infidelity (1-F) per completed GRAPE training, by group size.",
			obs.ExponentialBuckets(1e-8, 10, 9), "qubits"),
		optIters: r.Counter("accqoc_grape_optimizer_iterations_total",
			"Accepted optimizer iterations across all GRAPE runs."),
		stepNorm: r.Histogram("accqoc_grape_step_norm",
			"Optimizer step norm per accepted iteration.",
			obs.ExponentialBuckets(1e-6, 10, 10)),
		seedDistance: r.Histogram("accqoc_seed_distance",
			"Similarity distance of nearest-seed candidates (admitted or not).",
			obs.ExponentialBuckets(1e-4, 4, 12)),
		seedLookups: r.CounterVec("accqoc_seed_lookups_total",
			"Nearest-seed lookups that found a candidate, by admission verdict.",
			"admitted"),
	}
	return ob
}

// install plants the server's training hooks in cfg, the option template
// every namespace's compiler copies. Each runs after the hook the caller
// set there, if any, so a server never silences its caller's own hooks.
func (ob *obsState) install(cfg *precompile.Config) {
	iter, train := cfg.Grape.IterationHook, cfg.Observer
	cfg.Grape.IterationHook = func(infidelity, stepNorm float64) {
		if iter != nil {
			iter(infidelity, stepNorm)
		}
		ob.grapeIterHook(infidelity, stepNorm)
	}
	cfg.Observer = func(numQubits, iterations int, infidelity float64, seeded bool) {
		if train != nil {
			train(numQubits, iterations, infidelity, seeded)
		}
		ob.trainingObserver(numQubits, iterations, infidelity, seeded)
	}
}

// grapeIterHook feeds the per-iteration convergence metrics; it runs once
// per accepted optimizer iteration on the training path and must stay
// allocation-free (atomic adds on preallocated cells only).
func (ob *obsState) grapeIterHook(infidelity, stepNorm float64) {
	ob.optIters.Inc()
	ob.stepNorm.Observe(stepNorm)
}

// qubitsLabel avoids strconv allocations for the overwhelmingly common
// group sizes.
func qubitsLabel(n int) string {
	switch n {
	case 1:
		return "1"
	case 2:
		return "2"
	default:
		return strconv.Itoa(n)
	}
}

// trainingObserver records one completed GRAPE training (serving path,
// circuit path, or calibration roll alike).
func (ob *obsState) trainingObserver(numQubits, iterations int, infidelity float64, seeded bool) {
	q := qubitsLabel(numQubits)
	ob.trainIters.With(q).Observe(float64(iterations))
	ob.trainInfidelity.With(q).Observe(infidelity)
}

// seedObserver records every nearest-seed lookup that found a candidate.
func (ob *obsState) seedObserver(distance float64, admitted bool) {
	ob.seedDistance.Observe(distance)
	if admitted {
		ob.seedLookups.With("true").Inc()
	} else {
		ob.seedLookups.With("false").Inc()
	}
}

// registerCollectors installs the scrape-time families that read counters
// owned elsewhere: per-device store stats, epochs, and roll progress from
// the device registry. Called after the Server exists (the closures need
// s); an idle server pays for these only when /metrics is scraped.
func (s *Server) registerCollectors() {
	r := s.obs.reg
	dev := []string{"device"}
	counter := func(name, help string, get func(st devreg.DeviceStatus) float64) {
		r.CollectCounters(name, help, dev, func(emit obs.Emit) {
			for _, d := range s.registry.Status() {
				emit(get(d), d.Name)
			}
		})
	}
	gauge := func(name, help string, get func(st devreg.DeviceStatus) float64) {
		r.CollectGauges(name, help, dev, func(emit obs.Emit) {
			for _, d := range s.registry.Status() {
				emit(get(d), d.Name)
			}
		})
	}
	counter("accqoc_store_hits_total", "Pulse store hits by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Hits) })
	counter("accqoc_store_misses_total", "Pulse store misses by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Misses) })
	counter("accqoc_store_evictions_total", "Pulse store LRU evictions by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Evictions) })
	counter("accqoc_store_inserts_total", "Pulse store inserts by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Inserts) })
	counter("accqoc_store_trainings_total", "GetOrTrain compute invocations by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Trainings) })
	counter("accqoc_store_coalesced_total", "GetOrTrain callers that joined an in-flight training (singleflight coalesce), by device.",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.DedupSuppressed) })
	counter("accqoc_store_train_failures_total", "GetOrTrain compute invocations that failed, by device.",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.TrainFailures) })
	gauge("accqoc_store_entries", "Cached pulse entries by device (current epoch).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Library.Entries) })
	gauge("accqoc_device_epoch", "Current calibration epoch by device.",
		func(st devreg.DeviceStatus) float64 { return float64(st.Epoch) })
	gauge("accqoc_device_epoch_age_seconds", "Age of the current calibration epoch by device.",
		func(st devreg.DeviceStatus) float64 { return st.EpochAgeSeconds })
	gauge("accqoc_roll_active", "1 while a cross-epoch recompilation roll is in flight, by device.",
		func(st devreg.DeviceStatus) float64 {
			if st.Recompile.Active {
				return 1
			}
			return 0
		})
	gauge("accqoc_roll_planned", "Plan size of the device's most recent recompilation roll.",
		func(st devreg.DeviceStatus) float64 { return float64(st.Recompile.Planned) })
	gauge("accqoc_roll_pending", "Unprocessed plan items of the device's recompilation roll (roll progress = planned - pending).",
		func(st devreg.DeviceStatus) float64 { return float64(st.Recompile.Pending()) })
	r.GaugeFunc("accqoc_queue_depth", "Tasks waiting in the training tier's compile queue.",
		func() float64 { return float64(s.svc.QueueLen()) })
	r.GaugeFunc("accqoc_compile_in_flight", "Tasks currently executing on training-tier workers.",
		func() float64 { return float64(s.svc.InFlight()) })
	r.CollectGauges("accqoc_jobs", "Async jobs held by the job store, by state.",
		[]string{"state"}, func(emit obs.Emit) {
			c := s.jobStore.Counts()
			emit(float64(c.Queued), "queued")
			emit(float64(c.Running), "running")
			emit(float64(c.Done), "done")
			emit(float64(c.Failed), "failed")
		})
	r.CollectCounters("accqoc_jobs_rejected_total", "Async submissions refused with 503 (job store at capacity, or shutdown).",
		nil, func(emit obs.Emit) { emit(float64(s.rejectedAsync.Load())) })
}

// statusWriter captures the response status code for the request counter
// and the trace.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request middleware: request ID
// generation (returned in X-Request-Id and threaded through the
// context), in-flight gauge, per-endpoint latency histogram and request
// counter, and — for compile endpoints (record=true) — a pipeline trace
// filed to the flight recorder.
func (s *Server) instrument(endpoint string, record bool, h http.HandlerFunc) http.HandlerFunc {
	ob := s.obs
	latency := ob.httpLatency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		rid := obs.NewRequestID()
		w.Header().Set("X-Request-Id", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		var tr *obs.Trace
		if record {
			tr = obs.NewTrace(rid, endpoint)
			ctx = obs.WithTrace(ctx, tr)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ob.inFlight.Add(1)
		h(sw, r.WithContext(ctx))
		ob.inFlight.Add(-1)
		latency.Observe(time.Since(begin).Seconds())
		ob.httpRequests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		if tr != nil {
			errMsg := ""
			if sw.code >= 400 {
				errMsg = http.StatusText(sw.code)
			}
			tr.Finish(sw.code, errMsg)
			ob.recorder.Record(tr)
		}
	}
}

// DebugRequestsResponse is the GET /debug/requests body: the flight
// recorder's most recent traces (newest first) and the slowest since
// boot (slowest first), each with per-stage span timings.
type DebugRequestsResponse struct {
	Recent  []*obs.Trace `json:"recent"`
	Slowest []*obs.Trace `json:"slowest"`
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.obs.recorder.Snapshot()
	if recent == nil {
		recent = []*obs.Trace{}
	}
	if slowest == nil {
		slowest = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, DebugRequestsResponse{Recent: recent, Slowest: slowest})
}

// observeCompile records the per-device compile latency once a dispatch
// resolves (success or pipeline failure — both consumed a worker).
func (s *Server) observeCompile(device string, elapsed time.Duration) {
	s.obs.deviceLatency.With(device).Observe(elapsed.Seconds())
}
