// Command accqoc-server runs the AccQOC pulse-compilation service: an HTTP
// JSON API over per-device, per-calibration-epoch pulse libraries.
// Programs arrive as OpenQASM 2.0 or workload specs on POST /v1/compile
// (with an optional "device" field routing to a registered device); groups
// already in the device's current-epoch library are served warm, uncovered
// groups are GRAPE-trained exactly once even under concurrent duplicate
// requests, and the default device's library survives restarts through
// versioned, fingerprinted snapshots.
//
// Usage:
//
//	accqoc-server -addr :8080 -lib pulses.snap
//	accqoc-server -device linear16 -policy swap2b3l -workers 8 -capacity 4096
//	accqoc-server -device melbourne -devices linear5,grid2x3   # multi-device serving
//	accqoc-server -calibration-file cal.json                   # SIGHUP re-reads → new epoch
//	accqoc-server -pprof localhost:6060   # expose net/http/pprof for live profiling
//	accqoc-server -job-ttl 1h -job-cap 4096  # async job ledger sizing
//	accqoc-server -log-format json        # structured JSON logs for pipelines
//	accqoc-server -capacity 4096 -cache-policy cost  # evict by training cost, not recency
//	accqoc-server -prefetch               # speculative re-training during idle cycles
//
// -policy takes one of the paper's six Table I grouping policies, all
// capped at two qubits. A 3-qubit policy is reachable only through the
// Go API (server.Config.Compile.Policy accepts any grouping.Policy).
//
// Every server exposes Prometheus text exposition at GET /metrics, the
// request flight recorder (per-stage compile traces) at GET /debug/requests,
// and an X-Request-Id header on every response, echoed in request-path log
// records. Every device keeps a cost-and-usage ledger (GET /v1/library/usage,
// GET /debug/costs), the input of -cache-policy cost and -prefetch.
//
// Cache misses warm-start: uncovered groups are MST-ordered per request
// and seeded from the similarity index over covered library entries.
//
// A calibration event — POST /v1/devices/{name}/calibrate, or SIGHUP with
// -calibration-file pointing at a JSON CalibrationUpdate — opens a new
// epoch for the device and re-trains its covered groups in the background,
// most-requested-first, each seeded by its own previous-epoch pulse.
//
// The snapshot is loaded asynchronously at boot (if present; /healthz
// reports 503 until done), verified against the device+calibration
// fingerprint (-lib-force overrides a mismatch), saved on SIGINT/SIGTERM
// shutdown, and optionally saved on a timer with -snapshot-every.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"accqoc"
	"accqoc/internal/devreg"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/server"
	"accqoc/internal/topology"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	policyName := flag.String("policy", "map2b4l", "grouping policy (see Table I): map2b2l|map2b3l|map2b4l|swap2b2l|swap2b3l|swap2b4l")
	deviceName := flag.String("device", "melbourne", "default device: melbourne | linear<N> | grid<R>x<C>")
	extraDevices := flag.String("devices", "", "comma-separated extra device specs served next to the default (same syntax as -device)")
	libPath := flag.String("lib", "", "library snapshot path for the default device (loaded at boot, saved at shutdown)")
	libForce := flag.Bool("lib-force", false, "load the boot snapshot even when its device+calibration fingerprint mismatches")
	format := flag.String("lib-format", "gob", "snapshot payload format: gob | json")
	snapshotEvery := flag.Duration("snapshot-every", 0, "also save the snapshot periodically (0 disables)")
	calibrationFile := flag.String("calibration-file", "", "JSON CalibrationUpdate re-read on SIGHUP to open a new calibration epoch for the default device")
	workers := flag.Int("workers", 0, "concurrent compilations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "pending-request queue depth (full queue answers 503)")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "how long finished async jobs stay pollable before eviction")
	jobCap := flag.Int("job-cap", 1024, "async job store capacity (a store full of live jobs answers 503)")
	capacity := flag.Int("capacity", 0, "library entry capacity per namespace, LRU-evicted beyond it (0 = unlimited)")
	maxGates := flag.Int("max-gates", 4096, "per-request gate budget")
	fidelity := flag.Float64("fidelity", 1e-3, "GRAPE target infidelity")
	maxIter := flag.Int("max-iter", 600, "GRAPE iteration cap per optimization")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060 (empty = disabled)")
	logFormat := flag.String("log-format", "text", "structured log output: text | json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	usageHistory := flag.Int("usage-history", 256, "request-history ring size per device for the co-occurrence miner")
	cachePolicy := flag.String("cache-policy", "lru",
		"library eviction policy: lru (historical behavior) | cost (evict the lowest iterations*hits score from the usage ledger)")
	prefetch := flag.Bool("prefetch", false,
		"speculatively re-train predicted-miss keys during idle cycles, strictly below request traffic, each warm-seeded from the similarity seed index when a similar entry is covered")
	prefetchEvery := flag.Duration("prefetch-interval", 50*time.Millisecond, "prefetcher idle-cycle period")
	prefetchDepth := flag.Int("prefetch-depth", 4, "ranked predictions examined per device per prefetch cycle")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "accqoc-server:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	switch *cachePolicy {
	case devreg.PolicyLRU, devreg.PolicyCostAware:
	default:
		fatal("unknown -cache-policy (want lru or cost)", "policy", *cachePolicy)
	}

	policy, err := grouping.PolicyByName(*policyName)
	if err != nil {
		fatal("bad -policy", "error", err.Error())
	}
	dev, err := topology.Parse(*deviceName)
	if err != nil {
		fatal("bad -device", "error", err.Error())
	}
	// Apply the calibration file at boot (if present) so the default
	// device starts at the physics its last shutdown snapshot was stamped
	// with — otherwise a routine restart after any SIGHUP recalibration
	// would fingerprint-reject its own snapshot. The file should carry
	// absolute calibration/hamiltonian values for this to be idempotent;
	// a relative drift_pct file reproduces exactly one hot reload.
	var bootHam hamiltonian.Config
	if *calibrationFile != "" {
		switch upd, uerr := readCalibrationFile(*calibrationFile); {
		case uerr == nil:
			p, aerr := upd.Apply(devreg.Profile{Name: *deviceName, Device: dev})
			if aerr != nil {
				fatal("calibration file rejected", "path", *calibrationFile, "error", aerr.Error())
			}
			dev, bootHam = p.Device, p.Ham
			logger.Info("applied calibration file at boot",
				"component", "main", "path", *calibrationFile, "fingerprint", p.Fingerprint())
		case os.IsNotExist(uerr):
			logger.Info("no calibration file yet; using flag defaults",
				"component", "main", "path", *calibrationFile)
		default:
			fatal("calibration file unreadable", "path", *calibrationFile, "error", uerr.Error())
		}
	}
	var extras []devreg.Profile
	if *extraDevices != "" {
		seen := map[string]bool{*deviceName: true}
		for _, spec := range strings.Split(*extraDevices, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" || seen[spec] {
				continue
			}
			seen[spec] = true
			d, derr := topology.Parse(spec)
			if derr != nil {
				fatal("bad -devices entry", "spec", spec, "error", derr.Error())
			}
			extras = append(extras, devreg.Profile{Name: spec, Device: d})
		}
	}
	var snapFormat libstore.Format
	switch *format {
	case "gob":
		snapFormat = libstore.FormatGob
	case "json":
		snapFormat = libstore.FormatJSON
	default:
		fatal("unknown -lib-format (want gob or json)", "format", *format)
	}

	srv := server.New(server.Config{
		Compile: accqoc.Options{
			Device: dev,
			Policy: policy,
			Precompile: precompile.Config{
				Ham:   bootHam,
				Grape: grape.Options{TargetInfidelity: *fidelity, MaxIterations: *maxIter},
			},
		},
		StoreOptions:      libstore.Options{Capacity: *capacity},
		DeviceName:        *deviceName,
		Devices:           extras,
		BootSnapshot:      *libPath,
		BootSnapshotForce: *libForce,
		Workers:           *workers,
		QueueDepth:        *queue,
		JobTTL:            *jobTTL,
		JobCap:            *jobCap,
		MaxGates:          *maxGates,
		UsageHistorySize:  *usageHistory,
		CachePolicy:       *cachePolicy,
		EnablePrefetch:    *prefetch,
		PrefetchInterval:  *prefetchEvery,
		PrefetchDepth:     *prefetchDepth,
		Logger:            logger,
	})

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "component", "main", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "component", "main", "error", err.Error())
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	save := func(reason string) {
		if *libPath == "" {
			return
		}
		// Never clobber the snapshot while its boot load is pending or
		// failed: a fingerprint-rejected library would be overwritten by
		// an empty store on the first shutdown.
		if done, _, berr := srv.BootStatus(); berr != nil {
			logger.Error("snapshot save refused: boot load failed; fix the config or pass -lib-force",
				"component", "main", "reason", reason, "path", *libPath, "error", berr.Error())
			return
		} else if !done {
			logger.Warn("snapshot save skipped: boot load still in progress",
				"component", "main", "reason", reason, "path", *libPath)
			return
		}
		ns, nerr := srv.Registry().Current("")
		if nerr != nil {
			logger.Error("snapshot save failed",
				"component", "main", "reason", reason, "error", nerr.Error())
			return
		}
		// Stamp the snapshot with the current epoch's fingerprint so a
		// later boot under different physics is rejected, not silently
		// served.
		if err := ns.Store.SaveSnapshotFingerprint(*libPath, snapFormat, ns.Profile.Fingerprint()); err != nil {
			logger.Error("snapshot save failed",
				"component", "main", "reason", reason, "path", *libPath, "error", err.Error())
			return
		}
		logger.Info("snapshot saved",
			"component", "main", "reason", reason, "path", *libPath,
			"entries", ns.Store.Len(), "device", ns.DeviceName, "epoch", ns.Epoch)
	}

	if *snapshotEvery > 0 && *libPath != "" {
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					save("periodic")
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// SIGHUP re-reads -calibration-file and opens a new calibration epoch
	// for the default device — the operator's hot-reload path after a
	// hardware recalibration lands.
	if *calibrationFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-hup:
					upd, uerr := readCalibrationFile(*calibrationFile)
					if uerr != nil {
						logger.Error("calibration reload failed",
							"component", "main", "path", *calibrationFile, "error", uerr.Error())
						continue
					}
					epoch, planned, cerr := srv.CalibrateDefault(upd)
					if cerr != nil {
						logger.Error("calibration reload rejected",
							"component", "main", "device", *deviceName, "error", cerr.Error())
						continue
					}
					logger.Info("calibration reload: new epoch open, warm recompilation queued",
						"component", "main", "device", *deviceName, "epoch", epoch, "planned", planned)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	go func() {
		logger.Info("accqoc-server listening",
			"component", "main", "addr", *addr, "device", dev.Name,
			"extra_devices", len(extras), "policy", policy.Name)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listen failed", "addr", *addr, "error", err.Error())
		}
	}()

	<-ctx.Done()
	logger.Info("shutting down", "component", "main")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown failed", "component", "main", "error", err.Error())
	}
	srv.Close()
	save("shutdown")
}

// newLogger builds the process logger from the -log-format/-log-level
// flags: human-readable text (default) or one JSON object per line for
// log pipelines. The same logger is handed to the server, so request-path
// records carry component/device/epoch/request-id fields uniformly.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// readCalibrationFile parses a JSON devreg.CalibrationUpdate.
func readCalibrationFile(path string) (devreg.CalibrationUpdate, error) {
	var upd devreg.CalibrationUpdate
	data, err := os.ReadFile(path)
	if err != nil {
		return upd, err
	}
	if err := json.Unmarshal(data, &upd); err != nil {
		return upd, fmt.Errorf("%s: %w", path, err)
	}
	return upd, nil
}
