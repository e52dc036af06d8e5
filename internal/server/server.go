// Package server is the routing tier of the AccQOC serving stack: the
// HTTP JSON surface over the training tier (internal/compilesvc), which
// owns the Prepare→coverage→train→latency pipeline and its worker pool.
// This package handles transport, request validation, admission
// accounting, device/namespace routing through the device registry
// (internal/devreg), request IDs and observability spans — and reaches the
// pipeline only through the training tier's compilesvc.Pool methods.
//
// Synchronous requests (POST /v1/compile, POST /v1/circuits/compile)
// block on the service's Do and return the finished response; the same
// endpoints with ?async=1 return 202 Accepted plus a job ID backed by the
// bounded job store (internal/jobs), pollable on GET /v1/jobs/{id} and
// cancelable with DELETE while still queued. Async submissions against
// the same (device, epoch) namespace are batched by the training tier
// into one shared resolveGroups pass; exactly-once training holds across
// sync and async traffic because every path resolves through the same
// namespace store singleflight.
//
// A calibration event (POST /v1/devices/{name}/calibrate) opens a new
// epoch and starts a background recompilation roll that feeds the shared
// pool one item at a time through the service's Recompile, so serving
// never blocks on a recalibration.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/jobs"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/qasm"
	"accqoc/internal/seedindex"
	"accqoc/internal/usage"
	"accqoc/internal/workload"
)

// maxBodyBytes bounds every request body (compile, circuit compile,
// calibration); a larger body answers 400.
const maxBodyBytes = 4 << 20

// Config assembles a Server. The zero value serves the paper's default
// pipeline (Melbourne, map2b4l) on GOMAXPROCS workers with a fresh,
// unbounded store.
type Config struct {
	// Compile configures the pipeline (device, policy, GRAPE budgets) for
	// the default device; it is also the option template for the extra
	// Devices (their topology and Hamiltonian override it per namespace).
	Compile accqoc.Options
	// StoreOptions configure every namespace's pulse store (its capacity):
	// the default device's, each extra device's and each new calibration
	// epoch's. Every store starts empty; BootSnapshot fills the default
	// device's.
	StoreOptions libstore.Options
	// DeviceName is the registry name of the default device (the one an
	// absent `device` request field routes to). Default "default".
	DeviceName string
	// Devices are additional device profiles served next to the default,
	// each with its own namespaced library and epochs.
	Devices []devreg.Profile
	// BootSnapshot, when set, is loaded asynchronously into the default
	// device's store after the server starts; /healthz reports 503 until
	// the load completes (the readiness gate). The snapshot's
	// device+calibration fingerprint must match the default profile
	// unless BootSnapshotForce is set.
	BootSnapshot      string
	BootSnapshotForce bool
	// Workers bounds concurrent compilations in the training tier.
	// Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending requests beyond the running ones; a full
	// queue answers 503 with a Retry-After hint. Default 64.
	QueueDepth int
	// MaxGates rejects programs above this gate count (400). Default 4096.
	MaxGates int
	// JobTTL bounds how long finished async jobs stay pollable before
	// TTL eviction. Default 15 minutes.
	JobTTL time.Duration
	// JobCap bounds the async job store; a full store answers 503 with
	// Retry-After (counted in rejected_async). Default 1024.
	JobCap int
	// AsyncBatchWindow is how long an async submission waits in the
	// training tier to share one resolveGroups pass with same-namespace
	// company. Default 2ms.
	AsyncBatchWindow time.Duration
	// FlightRecorderSize bounds the request flight recorder: the last N
	// traces and the N slowest are kept for GET /debug/requests.
	// Default 64.
	FlightRecorderSize int
	// UsageHistorySize bounds the per-device request-history ring the
	// co-occurrence miner reads. Default 256.
	UsageHistorySize int
	// CachePolicy selects the library eviction policy for every
	// namespace store: "lru" (or empty — the default, byte-identical to
	// the historical behavior) or "cost", which evicts the lowest
	// iterations×hits score as measured by the device's usage ledger.
	CachePolicy string
	// EnablePrefetch starts the idle-cycle speculative-training driver:
	// when the compile queue is empty and a worker is free, the top
	// predicted-miss keys (mined from the usage ledger's request history)
	// are re-trained through the ordinary store singleflight at strictly
	// lower priority than request traffic. Does nothing useful without the
	// seed index (training targets are learned from it).
	EnablePrefetch bool
	// PrefetchInterval is the prefetcher's idle-cycle period. Default 50ms.
	PrefetchInterval time.Duration
	// PrefetchDepth is how many ranked predictions the prefetcher examines
	// per device per cycle. Default 4.
	PrefetchDepth int
	// Logger receives the server's structured events (boot-snapshot load,
	// calibration epochs, request failures), each stamped with the
	// request ID when one is in scope. Default slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 4096
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 64
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// CompileRequest is the POST /v1/compile body. Exactly one of QASM or
// Workload must be set.
type CompileRequest struct {
	// QASM is OpenQASM 2.0 source.
	QASM string `json:"qasm,omitempty"`
	// Workload is a generator spec: qft:N, named:NAME,
	// random:QUBITS:GATES:SEED (see workload.FromSpec).
	Workload string `json:"workload,omitempty"`
	// Device selects a registered device profile; empty routes to the
	// default device (today's single-device wire format).
	Device string `json:"device,omitempty"`
}

// CompileResponse reports one request's accelerated compilation. The
// type lives in the training tier (it is the pipeline's output); the
// alias preserves this package's wire surface across the tier split.
type CompileResponse = compilesvc.CompileResponse

// StatsResponse is the GET /v1/library/stats body. Library and SeedIndex
// describe the default device's current epoch (the pre-registry wire
// format); per-device views live under GET /v1/devices.
type StatsResponse struct {
	Library libstore.Stats `json:"library"`
	// SeedIndex reports the warm-start index.
	SeedIndex *seedindex.Stats `json:"seed_index,omitempty"`
	// EvictPolicy reports the default device's cost-aware eviction policy
	// counters; absent under the default LRU policy.
	EvictPolicy *libstore.PolicyStats `json:"evict_policy,omitempty"`
	Server      ServerStats           `json:"server"`
}

// ServerStats carries request-level counters plus the training tier's
// live queue/in-flight readings (read from the compilesvc.Pool — the
// routing tier holds no pipeline state of its own).
type ServerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Failures      int64   `json:"failures"`
	Rejected      int64   `json:"rejected"` // queue-full 503s (sync)
	// RejectedAsync counts async submissions refused with 503 (job store
	// at capacity, or shutdown).
	RejectedAsync      int64   `json:"rejected_async"`
	TotalCompileMillis float64 `json:"total_compile_millis"`
	// WarmSeeded totals trainings (across all requests) that started
	// from a similarity-admitted seed.
	WarmSeeded int64 `json:"warm_seeded"`
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	// QueueLen/InFlight are the training tier's live readings: tasks
	// waiting in the compile queue and tasks executing on workers.
	QueueLen int `json:"queue_len"`
	InFlight int `json:"in_flight"`
	// Jobs censuses the async job store by state.
	Jobs *jobs.Counts `json:"jobs,omitempty"`
	// Prefetch aggregates the speculative-training driver's counters
	// across devices; absent unless prefetch is enabled.
	Prefetch *compilesvc.PrefetchStats `json:"prefetch,omitempty"`
}

// Server is the HTTP routing tier.
type Server struct {
	cfg Config
	// registry maps device names to their current calibration-epoch
	// namespaces (compiler + store + seed index per epoch).
	registry *devreg.Registry
	mux      *http.ServeMux

	// svc is the training tier: the only way this package reaches the
	// compile pipeline.
	svc *compilesvc.Pool
	// prefetcher is the idle-cycle speculative-training driver; nil unless
	// Config.EnablePrefetch.
	prefetcher *compilesvc.Prefetcher
	// jobStore backs the async job API.
	jobStore *jobs.Store

	// rollWG tracks background goroutines outside the worker pool: the
	// boot-snapshot load and calibration-roll drivers. Close waits for
	// them after the training tier drains (a roll driver blocked on a
	// Recompile is answered by the service's shutdown sweep).
	rollWG sync.WaitGroup
	start  time.Time

	requests, failures, rejected atomic.Int64
	rejectedAsync                atomic.Int64
	compileNs                    atomic.Int64

	// obs is the observability bundle (metrics registry, flight recorder,
	// pipeline hooks).
	obs    *obsState
	logger *slog.Logger

	boot bootState

	// closed gates calibrations and marks the shutdown path; request
	// admission during shutdown is the training tier's job (ErrClosed).
	closed atomic.Bool
}

// New builds a server, its training-tier pool, and its async job store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The observability hooks must be planted in the option template
	// BEFORE the registry copies it into namespaces: every epoch's
	// compiler (and every future epoch's, opened by a calibration)
	// inherits them from cfg.Compile.
	ob := newObsState(cfg.FlightRecorderSize)
	regCfg := devreg.Config{
		Base:           cfg.Compile,
		StoreOptions:   cfg.StoreOptions,
		SeedObserver:   ob.seedObserver,
		Usage:          usage.Options{HistorySize: cfg.UsageHistorySize},
		CachePolicy:    cfg.CachePolicy,
		EnablePrefetch: cfg.EnablePrefetch,
	}
	ob.install(&regCfg.Base.Precompile)
	reg, err := devreg.New(regCfg, devreg.Profile{
		Name:   cfg.DeviceName,
		Device: cfg.Compile.Device,
		Ham:    cfg.Compile.Precompile.Ham,
	})
	if err != nil {
		// Reachable through an impossible default profile or an unknown
		// CachePolicy (the command validates its flags first); surface
		// loudly rather than serving a half-built registry.
		panic(err)
	}
	pool := compilesvc.New(compilesvc.Config{
		Workers:     cfg.Workers,
		QueueDepth:  cfg.QueueDepth,
		BatchWindow: cfg.AsyncBatchWindow,
	})
	s := &Server{
		cfg:      cfg,
		registry: reg,
		mux:      http.NewServeMux(),
		svc:      pool,
		jobStore: jobs.NewStore(cfg.JobCap, cfg.JobTTL),
		start:    time.Now(),
		obs:      ob,
		logger:   cfg.Logger,
	}
	if cfg.EnablePrefetch {
		s.prefetcher = compilesvc.NewPrefetcher(pool, reg, compilesvc.PrefetchOptions{
			Interval: cfg.PrefetchInterval,
			Depth:    cfg.PrefetchDepth,
		})
	}
	for _, p := range cfg.Devices {
		if rerr := reg.Register(p); rerr != nil {
			panic(rerr)
		}
	}
	s.mux.HandleFunc("POST /v1/compile", s.instrument("/v1/compile", true, s.handleCompile))
	s.mux.HandleFunc("POST /v1/circuits/compile", s.instrument("/v1/circuits/compile", true, s.handleCircuits))
	s.mux.HandleFunc("GET /v1/library/stats", s.instrument("/v1/library/stats", false, s.handleStats))
	s.mux.HandleFunc("GET /v1/devices", s.instrument("/v1/devices", false, s.handleDevices))
	s.mux.HandleFunc("POST /v1/devices/{name}/calibrate", s.instrument("/v1/devices/calibrate", false, s.handleCalibrate))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", false, s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs", false, s.handleJobDelete))
	s.mux.HandleFunc("GET /v1/library/usage", s.instrument("/v1/library/usage", false, s.handleUsage))
	s.mux.HandleFunc("GET /debug/costs", s.handleDebugCosts)
	s.registerCollectors()
	obs.RegisterRuntimeMetrics(ob.reg)
	s.registerUsageCollectors()
	s.registerPolicyCollectors()
	s.mux.Handle("GET /metrics", ob.reg.Handler())
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.startBootLoad()
	return s
}

// Registry exposes the device registry (admin surfaces, tests).
func (s *Server) Registry() *devreg.Registry { return s.registry }

// Prefetcher exposes the speculative-training driver (tests and replay
// benchmarks drive its cycle deterministically); nil unless enabled.
func (s *Server) Prefetcher() *compilesvc.Prefetcher { return s.prefetcher }

// Store exposes the default device's current-epoch pulse store.
func (s *Server) Store() *libstore.Store { return s.defaultNS().Store }

// defaultNS returns the default device's current namespace without a
// reference (inspection only).
func (s *Server) defaultNS() *devreg.Namespace {
	ns, err := s.registry.Current("")
	if err != nil {
		panic(err) // the default device always exists
	}
	return ns
}

// Handler returns the HTTP handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the stack down back to front: the training tier drains its
// queue (answering stragglers and unflushed async batches with
// ErrClosed, which fails their jobs), roll drivers observe the closed
// service and exit, and finally any job still queued in the store —
// there should be none — is marked failed rather than stranded.
func (s *Server) Close() {
	s.closed.Store(true)
	// The prefetcher goes first: its loop feeds the pool, and a
	// speculation enqueued after the pool's sweep would hang the driver.
	if s.prefetcher != nil {
		s.prefetcher.Close()
	}
	s.svc.Close()
	// Roll drivers observe ErrClosed (or their answered item) and exit;
	// the boot loader finishes on its own.
	s.rollWG.Wait()
	s.jobStore.FailQueued(compilesvc.ErrClosed.Error())
}

// dispatch is the shared request lifecycle of the synchronous compile
// endpoints: ingest the program, route the device field to its
// current-epoch namespace, run one request through the training tier,
// and apply the failure/rejection accounting. A nil return means an
// error response has already been written. r carries the request trace
// and ID planted by the middleware.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, req CompileRequest, circuit, waveforms bool) *compilesvc.Result {
	prog, ns := s.admit(w, r, req)
	if ns == nil {
		return nil
	}
	// The reference keeps this namespace (and its retiring epoch) alive
	// until the response is assembled, even if a calibration lands
	// mid-request.
	defer ns.Release()
	tr := obs.TraceFrom(r.Context())
	tr.SetMeta(ns.DeviceName, ns.Epoch, prog.NumQubits, prog.GateCount())

	begin := time.Now()
	res, err := s.svc.Do(&compilesvc.Request{
		Prog: prog, NS: ns, Circuit: circuit, Waveforms: waveforms, Trace: tr,
	})
	if err != nil {
		if errors.Is(err, compilesvc.ErrQueueFull) || errors.Is(err, compilesvc.ErrClosed) {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
			return nil
		}
		// Pipeline failure: the request consumed a worker either way.
		s.observeCompile(ns.DeviceName, time.Since(begin))
		s.failures.Add(1)
		s.logRequestError(r, "compile", err)
		writeError(w, http.StatusInternalServerError, err)
		return nil
	}
	s.observeCompile(ns.DeviceName, time.Since(begin))
	return res
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if wantsAsync(r) {
		s.dispatchAsync(w, r, req, false, false)
		return
	}
	res := s.dispatch(w, r, req, false, false)
	if res == nil {
		return
	}
	// Echo the explicit device routing; an empty request field keeps the
	// single-device wire format byte for byte.
	res.Resp.Device = req.Device
	s.compileNs.Add(int64(res.Resp.CompileMillis * float64(time.Millisecond)))
	writeJSON(w, http.StatusOK, res.Resp)
}

// logRequestError files one request failure with its request ID, so log
// lines join up with the flight recorder's traces.
func (s *Server) logRequestError(r *http.Request, stage string, err error) {
	s.logger.Debug("request failed",
		"component", "server",
		"stage", stage,
		"request_id", obs.RequestIDFrom(r.Context()),
		"error", err.Error())
}

// admit is the ingest-and-route step of every compile endpoint, sync and
// async: parse the program, route the device field to its current-epoch
// namespace, and check that the program fits that device. Each failure
// is the client's: it is answered 400 here and admit returns a nil
// namespace. On success the caller owns the namespace reference.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req CompileRequest) (*circuit.Circuit, *devreg.Namespace) {
	fail := func(stage string, err error) (*circuit.Circuit, *devreg.Namespace) {
		s.failures.Add(1)
		s.logRequestError(r, stage, err)
		writeError(w, http.StatusBadRequest, err)
		return nil, nil
	}
	sp := obs.TraceFrom(r.Context()).StartSpan("parse")
	prog, err := s.ingest(req)
	if err != nil {
		return fail("ingest", err)
	}
	sp.End()
	ns, err := s.registry.Acquire(req.Device)
	if err != nil {
		return fail("route", err)
	}
	if dev := ns.Comp.Options().Device; prog.NumQubits > dev.NumQubits {
		ns.Release()
		return fail("route", fmt.Errorf("circuit needs %d qubits, device %q has %d",
			prog.NumQubits, dev.Name, dev.NumQubits))
	}
	return prog, ns
}

// ingest turns a request body into a circuit.
func (s *Server) ingest(req CompileRequest) (*circuit.Circuit, error) {
	switch {
	case req.QASM != "" && req.Workload != "":
		return nil, errors.New("set exactly one of qasm, workload")
	case req.QASM != "":
		return qasm.ParseBudget(req.QASM, s.cfg.MaxGates)
	case req.Workload != "":
		// The budget is enforced inside the generator, before anything of
		// consequence is built.
		p, err := workload.FromSpecBudget(req.Workload, s.cfg.MaxGates)
		if err != nil {
			return nil, err
		}
		return p.Circuit, nil
	default:
		return nil, errors.New("set exactly one of qasm, workload")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ns := s.defaultNS()
	out := StatsResponse{
		Library: ns.Store.Stats(),
		Server: ServerStats{
			UptimeSeconds:      time.Since(s.start).Seconds(),
			Requests:           s.requests.Load(),
			Failures:           s.failures.Load(),
			Rejected:           s.rejected.Load(),
			RejectedAsync:      s.rejectedAsync.Load(),
			TotalCompileMillis: float64(s.compileNs.Load()) / float64(time.Millisecond),
			WarmSeeded:         s.svc.WarmSeeded(),
			Workers:            s.svc.Workers(),
			QueueDepth:         s.svc.QueueCap(),
			QueueLen:           s.svc.QueueLen(),
			InFlight:           s.svc.InFlight(),
		},
	}
	c := s.jobStore.Counts()
	out.Server.Jobs = &c
	seedStats := ns.Seeds.Stats()
	out.SeedIndex = &seedStats
	if pol, _ := s.registry.EvictionPolicy(""); pol != nil {
		st := pol.Stats()
		out.EvictPolicy = &st
	}
	if s.prefetcher != nil {
		st := s.prefetcher.Stats()
		out.Server.Prefetch = &st
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
