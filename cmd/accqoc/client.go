package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accqoc/internal/jobs"
	"accqoc/internal/server"
)

// deviceWeight is one entry of the -devices traffic mix.
type deviceWeight struct {
	name   string
	weight float64
}

// parseDeviceMix parses a weighted device mix spec like
// "melbourne:0.7,linear5:0.3". Weights must be positive; they are treated
// as ratios (no need to sum to 1). A bare name gets weight 1.
func parseDeviceMix(spec string) ([]deviceWeight, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []deviceWeight
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("device mix %q: empty device name", spec)
		}
		w := 1.0
		if hasW {
			var err error
			w, err = strconv.ParseFloat(strings.TrimSpace(wstr), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("device mix %q: bad weight for %s", spec, name)
			}
		}
		out = append(out, deviceWeight{name: name, weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("device mix %q: no devices", spec)
	}
	return out, nil
}

// assignDevices deterministically spreads n requests across the mix with
// smooth weighted round-robin, so a 0.7/0.3 mix interleaves 7:3 instead of
// sending two monolithic blocks (which would hide cross-device
// interference on the server).
func assignDevices(mix []deviceWeight, n int) []string {
	if len(mix) == 0 {
		return make([]string, n)
	}
	out := make([]string, n)
	cur := make([]float64, len(mix))
	var total float64
	for _, m := range mix {
		total += m.weight
	}
	for i := 0; i < n; i++ {
		best := 0
		for j := range mix {
			cur[j] += mix[j].weight
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = mix[best].name
	}
	return out
}

// percentile returns the p-th percentile (0..100) of an ascending-sorted
// latency slice, interpolating linearly between the two closest ranks so
// small samples don't snap to min/max the way nearest-rank does.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// deviceSummary is one per-device row of the -json report.
type deviceSummary struct {
	Device    string  `json:"device"`
	Requests  int     `json:"requests"`
	Failed    int     `json:"failed,omitempty"`
	MedianMs  float64 `json:"median_ms,omitempty"`
	WarmHits  int     `json:"warm_served"`
	Seeded    int     `json:"warm_seeded_trainings"`
	GrapeIter int     `json:"grape_iterations"`
}

// groupSizeSummary is one per-group-size row of the -circuits report: how
// much of the scheduled program each group dimension contributes.
type groupSizeSummary struct {
	Size            int     `json:"size"`
	Slots           int     `json:"slots"`
	TotalDurationNs float64 `json:"total_duration_ns"`
	MeanDurationNs  float64 `json:"mean_duration_ns"`
	MakespanShare   float64 `json:"makespan_share,omitempty"`
}

// clientSummary is the machine-readable loadgen report emitted by -json,
// replacing hand-rolled BENCH_*.json capture.
type clientSummary struct {
	Endpoint    string `json:"endpoint"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`

	ColdWallMs    float64 `json:"cold_wall_ms"`
	ColdCompileMs float64 `json:"cold_compile_ms"`
	ColdCoverage  float64 `json:"cold_coverage"`
	GroupsTrained int     `json:"groups_trained"`

	// Circuit-mode schedule view (zero unless -circuits).
	Slots            int                `json:"slots,omitempty"`
	MakespanNs       float64            `json:"makespan_ns,omitempty"`
	GateLatencyNs    float64            `json:"gate_latency_ns,omitempty"`
	LatencyReduction float64            `json:"latency_reduction,omitempty"`
	GroupSizes       []groupSizeSummary `json:"group_sizes,omitempty"`

	WarmRequests  int     `json:"warm_requests"`
	WarmFailed    int     `json:"warm_failed"`
	WarmServed    int     `json:"warm_served"`
	WarmElapsedMs float64 `json:"warm_elapsed_ms"`
	WarmP50Ms     float64 `json:"warm_p50_ms"`
	WarmP95Ms     float64 `json:"warm_p95_ms"`
	WarmP99Ms     float64 `json:"warm_p99_ms"`
	WarmMeanCov   float64 `json:"warm_mean_coverage,omitempty"`
	Speedup       float64 `json:"cold_warm_speedup,omitempty"`

	// Async-mode breakdown (absent unless -async). In async mode the
	// wall/warm latencies above are end-to-end submit→done times; these
	// fields isolate the 202 submit round-trip, i.e. the latency the
	// routing tier answers with before any training happens.
	Async            bool    `json:"async,omitempty"`
	AsyncSubmitP50Ms float64 `json:"async_submit_p50_ms,omitempty"`
	AsyncSubmitP95Ms float64 `json:"async_submit_p95_ms,omitempty"`
	AsyncJobsFailed  int     `json:"async_jobs_failed,omitempty"`

	Devices []deviceSummary   `json:"devices,omitempty"`
	Library libstoreStatsWire `json:"library"`
	Server  serverStatsWire   `json:"server"`
}

// libstoreStatsWire / serverStatsWire mirror the fields of
// /v1/library/stats the text report already prints.
type libstoreStatsWire struct {
	Entries         int64 `json:"entries"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Trainings       int64 `json:"trainings"`
	DedupSuppressed int64 `json:"deduped"`
	Evictions       int64 `json:"evictions"`
}

type serverStatsWire struct {
	Requests           int64   `json:"requests"`
	Failures           int64   `json:"failures"`
	Rejected           int64   `json:"rejected"`
	TotalCompileMillis float64 `json:"total_compile_ms"`
	UptimeSeconds      float64 `json:"uptime_seconds"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runClient drives a running accqoc-server: it sends the same compile
// request n times with the given concurrency — optionally spread across a
// weighted multi-device mix — and reports how request latency collapses
// once the pulse libraries are warm, with a per-device breakdown, then
// prints the server's /v1/library/stats. With circuits set it exercises
// the whole-program endpoint (POST /v1/circuits/compile) instead, adding
// the scheduled-pulse-program view: makespan, slot count, coverage. With
// async set every request goes through the async job API — POST
// ?async=1, collect the 202 job envelope, poll GET /v1/jobs/{id} to a
// terminal state — so wall times become end-to-end submit→done and the
// report gains the submit round-trip percentiles. With jsonOut set the
// human-readable report is replaced by one clientSummary JSON document
// on stdout.
func runClient(baseURL, inPath, workloadSpec, deviceMix string, n, concurrency int, circuits, async, jsonOut bool) error {
	var req server.CompileRequest
	switch {
	case inPath != "" && workloadSpec != "":
		return fmt.Errorf("set exactly one of -in, -workload")
	case inPath != "":
		src, err := os.ReadFile(inPath)
		if err != nil {
			return err
		}
		req.QASM = string(src)
	case workloadSpec != "":
		req.Workload = workloadSpec
	default:
		return fmt.Errorf("client mode needs -in or -workload")
	}
	if n < 1 {
		n = 1
	}
	if concurrency < 1 {
		concurrency = 1
	}
	mix, err := parseDeviceMix(deviceMix)
	if err != nil {
		return err
	}
	devices := assignDevices(mix, n)

	type sample struct {
		idx    int
		device string
		wall   time.Duration
		// submit is the 202 round-trip in -async mode (zero otherwise);
		// wall then covers submit through the terminal poll.
		submit time.Duration
		resp   server.CompileResponse
		// makespan/slots/sizes carry the schedule view in -circuits mode.
		makespan float64
		slots    int
		sizes    map[int]groupSizeSummary
		// jobFailed marks an async job that was accepted but finished in
		// the failed state (as opposed to a transport/submit error).
		jobFailed bool
		err       error
		debug     string
	}
	samples := make([]sample, n)

	endpoint := "/v1/compile"
	if circuits {
		endpoint = "/v1/circuits/compile"
	}

	// decodeResult parses one compile result payload — a sync response
	// body or an async job's embedded result — into the sample.
	decodeResult := func(s *sample, data []byte) {
		if circuits {
			var cr server.CircuitResponse
			if derr := json.Unmarshal(data, &cr); derr != nil {
				s.err = derr
				return
			}
			s.resp = cr.Compile
			s.makespan = cr.MakespanNs
			s.slots = len(cr.Schedule)
			s.sizes = map[int]groupSizeSummary{}
			for _, sp := range cr.Schedule {
				g := s.sizes[len(sp.Qubits)]
				g.Size = len(sp.Qubits)
				g.Slots++
				g.TotalDurationNs += sp.DurationNs
				s.sizes[g.Size] = g
			}
			return
		}
		if derr := json.Unmarshal(data, &s.resp); derr != nil {
			s.err = derr
		}
	}

	// postAsync drives one request through the job API: submit with
	// ?async=1, collect the 202 envelope, poll the job to a terminal
	// state. wall covers submit through the terminal poll; submit holds
	// the 202 round-trip alone — the routing tier's answer time.
	postAsync := func(i int, payload []byte) sample {
		s := sample{idx: i, device: devices[i]}
		start := time.Now()
		resp, err := http.Post(baseURL+endpoint+"?async=1", "application/json", bytes.NewReader(payload))
		if err != nil {
			s.err = err
			return s
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.submit = time.Since(start)
		s.wall = s.submit
		var acc server.AsyncAccepted
		switch {
		case rerr != nil:
			s.err = rerr
			return s
		case resp.StatusCode != http.StatusAccepted:
			s.err = fmt.Errorf("status %d", resp.StatusCode)
			s.debug = string(raw)
			return s
		default:
			if derr := json.Unmarshal(raw, &acc); derr != nil {
				s.err = derr
				return s
			}
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			jr, jerr := http.Get(baseURL + acc.Poll)
			if jerr != nil {
				s.err = jerr
				break
			}
			var job jobs.Job
			derr := json.NewDecoder(jr.Body).Decode(&job)
			jr.Body.Close()
			switch {
			case jr.StatusCode != http.StatusOK:
				s.err = fmt.Errorf("poll %s: status %d", acc.JobID, jr.StatusCode)
			case derr != nil:
				s.err = derr
			case job.State == jobs.StateDone:
				decodeResult(&s, job.Result)
			case job.State == jobs.StateFailed:
				s.jobFailed = true
				s.err = fmt.Errorf("job %s failed: %s", acc.JobID, job.Error)
			case time.Now().After(deadline):
				s.err = fmt.Errorf("job %s: poll deadline exceeded in state %s", acc.JobID, job.State)
			default:
				time.Sleep(2 * time.Millisecond)
				continue
			}
			break
		}
		s.wall = time.Since(start)
		return s
	}

	// The first request runs alone so the cold-path cost is unambiguous;
	// the rest fan out with the requested concurrency against the now-warm
	// (or warming) libraries.
	post := func(i int) {
		body := req
		body.Device = devices[i]
		payload, merr := json.Marshal(body)
		if merr != nil {
			samples[i] = sample{idx: i, device: devices[i], err: merr}
			return
		}
		if async {
			samples[i] = postAsync(i, payload)
			return
		}
		start := time.Now()
		resp, err := http.Post(baseURL+endpoint, "application/json", bytes.NewReader(payload))
		s := sample{idx: i, device: devices[i], wall: time.Since(start)}
		if err != nil {
			s.err = err
		} else {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				s.err = rerr
			case resp.StatusCode != http.StatusOK:
				s.err = fmt.Errorf("status %d", resp.StatusCode)
				s.debug = string(raw)
			default:
				decodeResult(&s, raw)
			}
		}
		samples[i] = s
	}

	post(0)
	if samples[0].err != nil {
		return fmt.Errorf("request 0: %w (%s)", samples[0].err, samples[0].debug)
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, concurrency)
	loadStart := time.Now()
	for i := 1; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			post(i)
		}(i)
	}
	wg.Wait()
	loadElapsed := time.Since(loadStart)

	cold := samples[0]
	sum := clientSummary{
		Endpoint:      endpoint,
		Requests:      n,
		Concurrency:   concurrency,
		ColdWallMs:    ms(cold.wall),
		ColdCompileMs: cold.resp.CompileMillis,
		ColdCoverage:  cold.resp.CoverageRate,
		GroupsTrained: cold.resp.UncoveredUnique,
	}
	if circuits {
		sum.Slots = cold.slots
		sum.MakespanNs = cold.makespan
		sum.GateLatencyNs = cold.resp.GateLatencyNs
		sum.LatencyReduction = cold.resp.LatencyReduction
		for _, g := range cold.sizes {
			if g.Slots > 0 {
				g.MeanDurationNs = g.TotalDurationNs / float64(g.Slots)
			}
			if cold.makespan > 0 {
				g.MakespanShare = g.TotalDurationNs / cold.makespan
			}
			sum.GroupSizes = append(sum.GroupSizes, g)
		}
		sort.Slice(sum.GroupSizes, func(i, j int) bool { return sum.GroupSizes[i].Size < sum.GroupSizes[j].Size })
	}
	if !jsonOut {
		fmt.Printf("cold request: %v wall, %.1f ms compile, coverage %.0f%%, %d groups trained\n",
			cold.wall.Round(time.Millisecond), cold.resp.CompileMillis,
			100*cold.resp.CoverageRate, cold.resp.UncoveredUnique)
		if circuits {
			fmt.Printf("scheduled program: %d slots, makespan %.0f ns vs %.0f ns gate-based (%.2fx)\n",
				cold.slots, cold.makespan, cold.resp.GateLatencyNs, cold.resp.LatencyReduction)
			for _, g := range sum.GroupSizes {
				fmt.Printf("  %dq groups: %d slots, %.0f ns pulse time (mean %.0f ns, %.0f%% of makespan)\n",
					g.Size, g.Slots, g.TotalDurationNs, g.MeanDurationNs, 100*g.MakespanShare)
			}
		}
	}

	var warm []time.Duration
	warmServed := 0
	failed := 0
	var covSum float64
	for _, s := range samples[1:] {
		if s.err != nil {
			failed++
			continue
		}
		warm = append(warm, s.wall)
		covSum += s.resp.CoverageRate
		if s.resp.WarmServed {
			warmServed++
		}
	}
	sum.WarmRequests = len(warm) + failed
	sum.WarmFailed = failed
	sum.WarmServed = warmServed
	sum.WarmElapsedMs = ms(loadElapsed)
	if len(warm) > 0 {
		sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
		p50 := percentile(warm, 50)
		p95 := percentile(warm, 95)
		p99 := percentile(warm, 99)
		sum.WarmP50Ms, sum.WarmP95Ms, sum.WarmP99Ms = ms(p50), ms(p95), ms(p99)
		sum.WarmMeanCov = covSum / float64(len(warm))
		if p50 > 0 {
			sum.Speedup = float64(cold.wall) / float64(p50)
		}
		if !jsonOut {
			fmt.Printf("warm requests: %d sent with concurrency %d in %v (%d warm-served, %d failed)\n",
				len(warm)+failed, concurrency, loadElapsed.Round(time.Millisecond), warmServed, failed)
			fmt.Printf("warm latency: p50 %v, p95 %v, p99 %v\n",
				p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
			if p50 > 0 {
				fmt.Printf("cold/warm speedup: %.1fx\n", sum.Speedup)
			}
			if circuits {
				fmt.Printf("coverage: cold %.0f%%, warm mean %.0f%% (%d of %d fully covered)\n",
					100*cold.resp.CoverageRate, 100*covSum/float64(len(warm)), warmServed, len(warm))
			}
		}
	}

	if async {
		sum.Async = true
		var submits []time.Duration
		jobsFailed := 0
		for _, s := range samples {
			if s.jobFailed {
				jobsFailed++
			}
			if s.submit > 0 && (s.err == nil || s.jobFailed) {
				// The submit round-trip completed (202) even if the job
				// later failed; only transport/reject errors are excluded.
				submits = append(submits, s.submit)
			}
		}
		sum.AsyncJobsFailed = jobsFailed
		if len(submits) > 0 {
			sort.Slice(submits, func(i, j int) bool { return submits[i] < submits[j] })
			sum.AsyncSubmitP50Ms = ms(percentile(submits, 50))
			sum.AsyncSubmitP95Ms = ms(percentile(submits, 95))
		}
		if !jsonOut {
			fmt.Printf("async submit: p50 %.2f ms, p95 %.2f ms over %d accepted jobs (%d jobs failed); wall latencies above are submit→done\n",
				sum.AsyncSubmitP50Ms, sum.AsyncSubmitP95Ms, len(submits), jobsFailed)
		}
	}

	// Per-device breakdown: traffic share, latency, warm-serving and
	// warm-seeding per registered device of the mix.
	if len(mix) > 0 {
		if !jsonOut {
			fmt.Println("per-device breakdown:")
		}
		for _, m := range mix {
			var walls []time.Duration
			sent, devFailed, devWarm, devSeeded, iters := 0, 0, 0, 0, 0
			for _, s := range samples {
				if s.device != m.name {
					continue
				}
				sent++
				if s.err != nil {
					devFailed++
					continue
				}
				walls = append(walls, s.wall)
				if s.resp.WarmServed {
					devWarm++
				}
				devSeeded += s.resp.WarmSeeded
				iters += s.resp.TrainingIterations
			}
			ds := deviceSummary{
				Device: m.name, Requests: sent, Failed: devFailed,
				WarmHits: devWarm, Seeded: devSeeded, GrapeIter: iters,
			}
			var devMedian time.Duration
			if len(walls) > 0 {
				sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
				devMedian = percentile(walls, 50)
				ds.MedianMs = ms(devMedian)
			}
			sum.Devices = append(sum.Devices, ds)
			if !jsonOut {
				line := fmt.Sprintf("  %-12s %3d requests", m.name, sent)
				if len(walls) > 0 {
					line += fmt.Sprintf(", median %v", devMedian.Round(time.Microsecond))
				}
				line += fmt.Sprintf(", %d warm-served, %d warm-seeded trainings, %d GRAPE iters",
					devWarm, devSeeded, iters)
				if devFailed > 0 {
					line += fmt.Sprintf(", %d FAILED", devFailed)
				}
				fmt.Println(line)
			}
		}
	}

	stats, err := fetchStats(baseURL)
	if err != nil {
		return err
	}
	sum.Library = libstoreStatsWire{
		Entries:         int64(stats.Library.Entries),
		Hits:            stats.Library.Hits,
		Misses:          stats.Library.Misses,
		Trainings:       stats.Library.Trainings,
		DedupSuppressed: stats.Library.DedupSuppressed,
		Evictions:       stats.Library.Evictions,
	}
	sum.Server = serverStatsWire{
		Requests:           stats.Server.Requests,
		Failures:           stats.Server.Failures,
		Rejected:           stats.Server.Rejected,
		TotalCompileMillis: stats.Server.TotalCompileMillis,
		UptimeSeconds:      stats.Server.UptimeSeconds,
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Printf("library: %d entries, %d hits, %d misses, %d trainings, %d deduped, %d evictions\n",
		stats.Library.Entries, stats.Library.Hits, stats.Library.Misses,
		stats.Library.Trainings, stats.Library.DedupSuppressed, stats.Library.Evictions)
	fmt.Printf("server:  %d requests, %d failures, %d rejected, %.1f ms total compile, up %.0fs\n",
		stats.Server.Requests, stats.Server.Failures, stats.Server.Rejected,
		stats.Server.TotalCompileMillis, stats.Server.UptimeSeconds)
	return nil
}

func fetchStats(baseURL string) (*server.StatsResponse, error) {
	resp, err := http.Get(baseURL + "/v1/library/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
