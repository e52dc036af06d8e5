package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/jobs"
)

// This file is the calibration-epoch surface of the server: the admin
// endpoints (GET /v1/devices, POST /v1/devices/{name}/calibrate), the
// background cross-epoch recompilation pipeline that runs on the shared
// worker pool, the asynchronous boot-snapshot load, and the readiness
// handler that reports all of it.

// CalibrateResponse is the POST /v1/devices/{name}/calibrate body.
type CalibrateResponse struct {
	Device string `json:"device"`
	// Epoch is the newly opened calibration epoch.
	Epoch int `json:"epoch"`
	// Planned counts old-epoch entries scheduled for warm recompilation,
	// ordered most-requested-first.
	Planned int `json:"planned"`
	// Fingerprint identifies the new epoch's physics (what snapshots of
	// it will be stamped with).
	Fingerprint string `json:"fingerprint"`
}

// DevicesResponse is the GET /v1/devices body.
type DevicesResponse struct {
	Default string                `json:"default"`
	Devices []devreg.DeviceStatus `json:"devices"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DevicesResponse{
		Default: s.registry.DefaultName(),
		Devices: s.registry.Status(),
	})
}

func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var upd devreg.CalibrationUpdate
	if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid calibration body: %w", err))
		return
	}
	roll, err := s.calibrate(r.PathValue("name"), upd)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errClosed) || errors.Is(err, errBootPending) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, CalibrateResponse{
		Device:      roll.Device,
		Epoch:       roll.Epoch,
		Planned:     len(roll.Plan),
		Fingerprint: roll.New.Profile.Fingerprint(),
	})
}

var (
	errClosed      = errors.New("server shutting down")
	errBootPending = errors.New("boot snapshot still loading; retry shortly")
)

// calibrate opens a new epoch for a device and starts its background
// recompilation roll. Calibrations are refused while the boot snapshot
// is still loading: the load targets the boot epoch's namespace, and an
// epoch swap mid-load would strand the snapshot's entries in a draining
// store (and lose them at the next shutdown save).
func (s *Server) calibrate(name string, upd devreg.CalibrationUpdate) (*devreg.Roll, error) {
	if s.closed.Load() {
		return nil, errClosed
	}
	if done, _, _ := s.BootStatus(); !done {
		return nil, errBootPending
	}
	roll, err := s.registry.Calibrate(name, upd)
	if err != nil {
		return nil, err
	}
	s.logger.Info("calibration epoch opened",
		"component", "server",
		"device", roll.Device,
		"epoch", roll.Epoch,
		"planned", len(roll.Plan))
	s.rollWG.Add(1)
	go s.runRoll(roll)
	return roll, nil
}

// CalibrateDefault opens a new calibration epoch for the default device
// and starts its background recompilation — the programmatic equivalent
// of POST /v1/devices/{name}/calibrate, used by the -calibration-file
// SIGHUP hot-reload path. It returns the new epoch and the number of
// groups queued for warm recompilation.
func (s *Server) CalibrateDefault(upd devreg.CalibrationUpdate) (epoch, planned int, err error) {
	roll, err := s.calibrate("", upd)
	if err != nil {
		return 0, 0, err
	}
	return roll.Epoch, len(roll.Plan), nil
}

// runRoll drives one calibration roll to completion: each plan item is
// fed to the training tier one at a time (so the roll never monopolizes
// workers or starves request traffic) and the old epoch is released for
// retirement when the plan is exhausted or the server shuts down. The
// recompilation itself — retrain toward the cached target unitary under
// the new epoch's physics, arbitrated against request traffic by the new
// store's singleflight — lives in the training tier.
func (s *Server) runRoll(roll *devreg.Roll) {
	defer s.rollWG.Done()
	defer roll.Finish()
	for i := range roll.Plan {
		// A newer calibration makes the rest of this plan training into a
		// dead epoch: abandon it so the obsolete namespace can retire and
		// the workers go to the live roll.
		if roll.Superseded() {
			return
		}
		it := &roll.Plan[i]
		for {
			err := s.svc.Recompile(roll, it)
			if err == nil {
				break
			}
			if errors.Is(err, compilesvc.ErrClosed) || s.closed.Load() {
				return
			}
			// Queue full: request traffic has priority; retry shortly.
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// bootState tracks the asynchronous boot-snapshot load gating readiness.
type bootState struct {
	mu         sync.Mutex
	configured bool
	done       bool
	entries    int
	fp         string
	err        error
	loadedAt   time.Time
	mtime      time.Time
}

// startBootLoad kicks off the asynchronous boot-snapshot load, if one is
// configured. The server serves compile traffic (cold) while the load
// runs; /healthz reports 503 until it completes.
func (s *Server) startBootLoad() {
	if s.cfg.BootSnapshot == "" {
		return
	}
	s.boot.mu.Lock()
	s.boot.configured = true
	s.boot.mu.Unlock()
	ns := s.defaultNS()
	want := ns.Profile.Fingerprint()
	path := s.cfg.BootSnapshot
	force := s.cfg.BootSnapshotForce
	s.rollWG.Add(1)
	go func() {
		defer s.rollWG.Done()
		var mtime time.Time
		if fi, err := os.Stat(path); err == nil {
			mtime = fi.ModTime()
		}
		n, fp, err := ns.Store.LoadIntoChecked(path, want, force)
		switch {
		case os.IsNotExist(err):
			// No snapshot yet: a cold boot is a ready boot.
			err = nil
			s.logger.Info("no snapshot yet; starting cold",
				"component", "server", "path", path)
		case err != nil:
			s.logger.Error("boot snapshot load failed; serving cold (/healthz reports error)",
				"component", "server", "path", path, "error", err.Error())
		default:
			s.logger.Info("boot snapshot loaded",
				"component", "server", "path", path, "entries", n)
		}
		s.boot.mu.Lock()
		s.boot.done = true
		s.boot.entries = n
		s.boot.fp = fp
		s.boot.err = err
		s.boot.loadedAt = time.Now()
		s.boot.mtime = mtime
		s.boot.mu.Unlock()
	}()
}

// BootStatus reports the boot-snapshot load: whether it has completed,
// how many entries it brought in, and its error, if any. Callers that
// persist snapshots (the server binary's shutdown and periodic saves)
// must not overwrite the snapshot path while the load is pending or
// failed — a mismatch-rejected library would otherwise be clobbered by
// an empty store on the first shutdown.
func (s *Server) BootStatus() (done bool, entries int, err error) {
	s.boot.mu.Lock()
	defer s.boot.mu.Unlock()
	if !s.boot.configured {
		return true, 0, nil
	}
	return s.boot.done, s.boot.entries, s.boot.err
}

// BootSnapshotHealth reports the boot-snapshot load inside /healthz.
type BootSnapshotHealth struct {
	Path   string `json:"path"`
	Loaded bool   `json:"loaded"`
	// Entries counts pulses loaded; AgeSeconds is the snapshot file's age
	// (mtime at load time).
	Entries     int     `json:"entries"`
	AgeSeconds  float64 `json:"age_seconds,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// DeviceHealth is the per-device readiness block of /healthz.
type DeviceHealth struct {
	Name    string `json:"name"`
	Epoch   int    `json:"epoch"`
	Entries int    `json:"entries"`
	// RecompilePending counts plan items of an active roll not yet
	// processed; Recompile carries the full progress.
	RecompilePending int               `json:"recompile_pending"`
	Recompile        devreg.RollStatus `json:"recompile"`
}

// CompileTierHealth is the training-tier block of /healthz: the live
// queue/in-flight readings, read from the compilesvc.Pool.
type CompileTierHealth struct {
	Workers    int `json:"workers"`
	QueueLen   int `json:"queue_len"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
}

// HealthResponse is the GET /healthz body. Status "ok" (200) means ready:
// the boot snapshot, when configured, has loaded. "loading" (503) means
// the load is still in flight; "error" (503) means it failed — the server
// still compiles (cold), but an operator should intervene (wrong -lib
// path, or a fingerprint mismatch wanting -lib-force).
type HealthResponse struct {
	Status  string              `json:"status"`
	Ready   bool                `json:"ready"`
	Boot    *BootSnapshotHealth `json:"boot_snapshot,omitempty"`
	Devices []DeviceHealth      `json:"devices"`
	// Compile reports the training tier; Jobs censuses the async job
	// store by state.
	Compile CompileTierHealth `json:"compile"`
	Jobs    *jobs.Counts      `json:"jobs,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := HealthResponse{Status: "ok", Ready: true, Compile: CompileTierHealth{
		Workers:    s.svc.Workers(),
		QueueLen:   s.svc.QueueLen(),
		QueueDepth: s.svc.QueueCap(),
		InFlight:   s.svc.InFlight(),
	}}
	c := s.jobStore.Counts()
	out.Jobs = &c
	s.boot.mu.Lock()
	if s.boot.configured {
		b := &BootSnapshotHealth{
			Path:    s.cfg.BootSnapshot,
			Loaded:  s.boot.done && s.boot.err == nil,
			Entries: s.boot.entries,
		}
		if !s.boot.mtime.IsZero() {
			b.AgeSeconds = time.Since(s.boot.mtime).Seconds()
		}
		b.Fingerprint = s.boot.fp
		switch {
		case !s.boot.done:
			out.Status, out.Ready = "loading", false
		case s.boot.err != nil:
			b.Error = s.boot.err.Error()
			out.Status, out.Ready = "error", false
		}
		out.Boot = b
	}
	s.boot.mu.Unlock()
	for _, d := range s.registry.Status() {
		out.Devices = append(out.Devices, DeviceHealth{
			Name:             d.Name,
			Epoch:            d.Epoch,
			Entries:          d.Entries,
			RecompilePending: d.Recompile.Pending(),
			Recompile:        d.Recompile,
		})
	}
	code := http.StatusOK
	if !out.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}
