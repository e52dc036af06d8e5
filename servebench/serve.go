package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"accqoc"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/server"
	"accqoc/internal/topology"
)

const (
	// workers is the server's training-pool size: what cmd/accqoc-server
	// picks on one vCPU.
	workers = 1
	// recorderSize is the traced servers' flight-recorder size: a traced
	// run matches its window's last recorderSize requests to their traces.
	recorderSize = 4096
	// keepResponses is how many answers the client keeps for the traced
	// run's front-end timings.
	keepResponses = 32
	// replays is how many trained steps are requested again after the
	// window.
	replays = 4
	// bootTimeout bounds how long a boot may take to report ready.
	bootTimeout = time.Minute
	// libraryDir holds the trained pool libraries, one per build of the
	// benchmark, inside the build directory run.sh uses.
	libraryDir = ".bench_build/library"
)

// serverOptions is the compile configuration of every server a run boots:
// what cmd/accqoc-server runs with its default flags on one vCPU. That is
// the paper's Melbourne device and map2b4l policy, GRAPE to infidelity
// 1e-3 with at most 600 iterations per probe, the default latency-search
// brackets, and the automatic segment parallelism, which one vCPU makes
// sequential.
func serverOptions() accqoc.Options {
	return accqoc.Options{
		Device: topology.Melbourne(),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape: grape.Options{TargetInfidelity: 1e-3, MaxIterations: 600},
		},
	}
}

var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	Timeout:   2 * time.Minute,
}

// instance is one server behind a loopback listener.
type instance struct {
	srv *server.Server
	ts  *httptest.Server
}

func newInstance(snapshot string, recorder int) *instance {
	s := server.New(server.Config{
		Compile:            serverOptions(),
		Workers:            workers,
		BootSnapshot:       snapshot,
		FlightRecorderSize: recorder,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	return &instance{srv: s, ts: httptest.NewServer(s.Handler())}
}

func (in *instance) close() {
	in.ts.Close()
	in.srv.Close()
	httpClient.CloseIdleConnections()
}

// post sends one compile request. The returned latency is the round trip:
// from sending the request until the whole response body has been read.
func (in *instance) post(body []byte) (*server.CircuitResponse, string, time.Duration, error) {
	begin := time.Now()
	resp, err := httpClient.Post(in.ts.URL+"/v1/circuits/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", time.Since(begin), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(begin)
	if err != nil {
		return nil, "", latency, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", latency, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var cr server.CircuitResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return nil, "", latency, fmt.Errorf("decoding the response: %w", err)
	}
	return &cr, resp.Header.Get("X-Request-Id"), latency, nil
}

// traces returns the traces held by the server's flight recorder.
func (in *instance) traces() ([]*obs.Trace, error) {
	resp, err := httpClient.Get(in.ts.URL + "/debug/requests")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out server.DebugRequestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /debug/requests: %w", err)
	}
	return out.Recent, nil
}

// library is the trained pool library the measured servers boot from.
type library struct {
	snapshot string
	// Entries is how many pulses the snapshot holds.
	Entries int `json:"entries"`
	// Refs holds each pool program's schedule digest by name: every
	// replay must reproduce the schedule first compiled.
	Refs map[string]string `json:"refs"`
}

// poolLibrary returns the pool library of this build of the benchmark.
// The first run of a build trains it, which takes minutes, and leaves it
// under libraryDir, keyed by the executable's hash; later runs of the
// same build load it. Every run thus boots from the same library, and a
// rebuilt program trains its own.
func poolLibrary(pool []*program) (*library, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(libraryDir, hex.EncodeToString(sum[:8]))
	lib := &library{snapshot: filepath.Join(dir, "library.snap")}
	meta, err := os.ReadFile(filepath.Join(dir, "library.json"))
	if errors.Is(err, fs.ErrNotExist) {
		if err = trainLibrary(pool, dir); err == nil {
			meta, err = os.ReadFile(filepath.Join(dir, "library.json"))
		}
	}
	if err == nil {
		err = json.Unmarshal(meta, lib)
	}
	if err != nil {
		return nil, fmt.Errorf("pool library: %w", err)
	}
	return lib, nil
}

// trainLibrary trains the pool on a fresh server, one request at a time so
// that every build trains the same library: each pool program, then the
// variational loop's starting point. It checks that a warm replay of each
// program reproduces its first schedule, then snapshots the library and
// writes it to dir in one rename.
func trainLibrary(pool []*program, dir string) error {
	fmt.Fprintln(os.Stderr, "servebench: training the pool library for this build")
	inst := newInstance("", 0)
	defer inst.close()
	lib := &library{Refs: map[string]string{}}
	for _, p := range append(pool[:len(pool):len(pool)], ansatzProgram(baseTheta)) {
		cr, _, _, err := inst.post(p.body)
		if err == nil {
			err = checkSchedule(p, cr)
		}
		if err != nil {
			return fmt.Errorf("training %s: %w", p.name, err)
		}
		lib.Refs[p.name] = digest(cr)
	}
	for _, p := range pool {
		cr, _, _, err := inst.post(p.body)
		if err == nil {
			err = checkHit(p, cr, lib.Refs[p.name])
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", p.name, err)
		}
	}
	ns, err := inst.srv.Registry().Current("")
	if err != nil {
		return err
	}
	lib.Entries = ns.Store.Len()
	if err := os.MkdirAll(libraryDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(libraryDir, "build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := ns.Store.SaveSnapshotFingerprint(filepath.Join(tmp, "library.snap"), libstore.FormatGob, ns.Profile.Fingerprint()); err != nil {
		return err
	}
	meta, err := json.Marshal(lib)
	if err == nil {
		err = os.WriteFile(filepath.Join(tmp, "library.json"), meta, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, dir)
	}
	return err
}

// boot starts a server from the library snapshot and waits until it is
// ready: the snapshot is loaded and indexed, /healthz answers 200, and
// each pool program has been compiled once from the library with the
// schedule it was trained to, so state built lazily on first use is in
// place. The returned duration is the set-up time.
func boot(lib *library, pool []*program, trace bool) (*instance, time.Duration, error) {
	recorder := 0 // the server's default
	if trace {
		recorder = recorderSize
	}
	begin := time.Now()
	inst := newInstance(lib.snapshot, recorder)
	err := func() error {
		for {
			done, n, err := inst.srv.BootStatus()
			switch {
			case !done && time.Since(begin) < bootTimeout:
				time.Sleep(50 * time.Microsecond)
				continue
			case !done:
				return fmt.Errorf("snapshot not loaded after %v", bootTimeout)
			case err == nil && n != lib.Entries:
				return fmt.Errorf("loaded %d entries, the snapshot holds %d", n, lib.Entries)
			}
			if err != nil {
				return err
			}
			break
		}
		resp, err := httpClient.Get(inst.ts.URL + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		for _, p := range pool {
			cr, _, _, err := inst.post(p.body)
			if err == nil {
				err = checkHit(p, cr, lib.Refs[p.name])
			}
			if err != nil {
				return fmt.Errorf("first replay of %s: %w", p.name, err)
			}
		}
		return nil
	}()
	if err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	return inst, time.Since(begin), nil
}

// sample is one request of the measured window.
type sample struct {
	prog    *program
	miss    bool
	latency time.Duration
	// ref is the reference kernel's time, taken right after the answer.
	ref time.Duration
	id  string
	err error
	// iters, trained, covered and groups are the response's GRAPE
	// iterations, trained groups, library-covered groups and groups.
	iters, trained, covered, groups int
	// resp is kept for the first keepResponses answers; digest for steps,
	// which the replay check compares against.
	resp   *server.CircuitResponse
	digest string
}

// window is the outcome of the measured window.
type window struct {
	samples []sample
	// attempted counts the window's requests and the replay checks; errs
	// holds every failed request or check.
	attempted int
	errs      []error
}

// drive runs the workload's closed-loop client until the window closes:
// it sends its next request when the previous answer has arrived and the
// reference kernel has run once (see host.go). A cold client sends only
// variational steps (cache misses), a warm client only pool replays
// (hits). Every answer is checked; after the window the first trained
// steps are requested again, and each must now be served from the library
// with its first schedule.
func drive(inst *instance, pool []*program, seed int64, cold bool, seconds int, refs map[string]string) *window {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	win := &window{}
	src := newStream(pool, seed, cold)
	for time.Now().Before(deadline) {
		p, miss := src.next()
		s := sample{prog: p, miss: miss}
		var cr *server.CircuitResponse
		cr, s.id, s.latency, s.err = inst.post(p.body)
		if s.err == nil {
			if miss {
				s.err = checkMiss(p, cr)
				s.digest = digest(cr)
			} else {
				s.err = checkHit(p, cr, refs[p.name])
			}
			r := cr.Compile
			s.iters, s.trained, s.covered, s.groups = r.TrainingIterations, r.UncoveredUnique, r.CoveredGroups, r.TotalGroups
			if len(win.samples) < keepResponses {
				s.resp = cr
			}
		}
		s.ref = reference()
		win.samples = append(win.samples, s)
	}
	for _, s := range win.samples {
		if s.err != nil {
			win.errs = append(win.errs, fmt.Errorf("%s: %w", s.prog.name, s.err))
		}
	}
	replayed := 0
	for _, s := range win.samples {
		if replayed == replays {
			break
		}
		if !s.miss || s.err != nil {
			continue
		}
		replayed++
		cr, _, _, err := inst.post(s.prog.body)
		if err == nil {
			err = checkHit(s.prog, cr, s.digest)
		}
		if err != nil {
			win.errs = append(win.errs, fmt.Errorf("replaying %s: %w", s.prog.name, err))
		}
	}
	win.attempted = len(win.samples) + replayed
	return win
}

// checkSchedule checks what every answer must satisfy, independently of
// the server's own validation: the echoed program size, no group left
// untrained, one slot per group with a waveform, slots sorted by start,
// no two slots overlapping on a qubit, and a makespan equal to the last
// slot's end.
func checkSchedule(p *program, cr *server.CircuitResponse) error {
	c := cr.Compile
	switch {
	case c.Qubits != p.qubits || c.Gates != p.gates:
		return fmt.Errorf("echoed %d qubits and %d gates, sent %d and %d", c.Qubits, c.Gates, p.qubits, p.gates)
	case c.FailedGroups != 0:
		return fmt.Errorf("%d groups failed to train", c.FailedGroups)
	case c.TotalGroups == 0 || len(cr.Schedule) != c.TotalGroups:
		return fmt.Errorf("%d slots for %d groups", len(cr.Schedule), c.TotalGroups)
	case cr.MakespanNs != c.QOCLatencyNs:
		return fmt.Errorf("makespan %v, compile latency %v", cr.MakespanNs, c.QOCLatencyNs)
	}
	busy := map[int]float64{} // end of each qubit's latest slot
	var end float64
	for i, s := range cr.Schedule {
		if i > 0 && s.StartNs < cr.Schedule[i-1].StartNs {
			return fmt.Errorf("slot %d starts before slot %d", i, i-1)
		}
		if s.StartNs < 0 || s.DurationNs <= 0 || s.Waveform == "" {
			return fmt.Errorf("slot %d: start %v, duration %v, waveform %q", i, s.StartNs, s.DurationNs, s.Waveform)
		}
		e := s.StartNs + s.DurationNs
		for _, q := range s.Qubits {
			if s.StartNs < busy[q]-1e-9 {
				return fmt.Errorf("slot %d overlaps an earlier slot on qubit %d", i, q)
			}
			busy[q] = math.Max(busy[q], e)
		}
		end = math.Max(end, e)
	}
	if math.Abs(end-cr.MakespanNs) > 1e-9*end {
		return fmt.Errorf("makespan %v, last slot ends at %v", cr.MakespanNs, end)
	}
	return nil
}

// checkHit checks a replay: served wholly from the library, with the
// schedule first compiled for the program.
func checkHit(p *program, cr *server.CircuitResponse, ref string) error {
	if err := checkSchedule(p, cr); err != nil {
		return err
	}
	c := cr.Compile
	if !c.WarmServed || c.CoverageRate != 1 || c.TrainingIterations != 0 {
		return fmt.Errorf("not served from the library: coverage %v, %d GRAPE iterations", c.CoverageRate, c.TrainingIterations)
	}
	if digest(cr) != ref {
		return fmt.Errorf("schedule differs from the one first compiled")
	}
	return nil
}

// checkMiss checks a variational step: its new θ made groups the library
// did not hold, and the server trained them.
func checkMiss(p *program, cr *server.CircuitResponse) error {
	if err := checkSchedule(p, cr); err != nil {
		return err
	}
	if c := cr.Compile; c.WarmServed || c.UncoveredUnique == 0 {
		return fmt.Errorf("moved θ, but no group was trained")
	}
	return nil
}

// digest renders a schedule for exact comparison: the makespan, and each
// slot's group, qubits, timing, waveform and orientation.
func digest(cr *server.CircuitResponse) string {
	var b strings.Builder
	fmt.Fprint(&b, cr.MakespanNs)
	for _, s := range cr.Schedule {
		fmt.Fprintf(&b, "|%d%v@%v+%v:%s:%t", s.Group, s.Qubits, s.StartNs, s.DurationNs, s.Waveform, s.Mirrored)
	}
	return b.String()
}
