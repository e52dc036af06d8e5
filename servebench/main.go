// Command servebench is the serving benchmark of the AccQOC pulse
// compiler. It boots the HTTP service (internal/server) in process from a
// trained pulse-library snapshot, drives POST /v1/circuits/compile over
// loopback with one of two seeded workloads, checks every response, and
// prints one JSON object as the last line of its output.
//
// Run it from the repository root; run.sh builds this package first:
//
//	bash servebench/run.sh --workload cold|warm --seed N --seconds S --trace 0|1
//
// The server runs the configuration cmd/accqoc-server picks with its
// default flags on one vCPU, the one the whole run is pinned to. Its
// library holds a fixed pool of the paper's §VI-A benchmark programs plus
// the starting point of a variational loop; the first run of a build
// trains it (minutes), later runs load it. The workloads differ only in
// their traffic, one closed-loop client each:
//
//	cold  every request is the next optimizer step of the variational
//	      loop of examples/variational (θ moves), so the ansatz's groups
//	      miss the library and GRAPE trains them, warm-started from the
//	      step before
//	warm  every request replays a pool program, so every group hits the
//	      library and no GRAPE runs
//
// With --trace 0 the result carries the end-to-end metrics, round-trip
// latency (a trimmed mean, see endToEnd) and set-up time (median of
// fifteen boots, each from the snapshot until /healthz answers 200 and
// every pool program has been served once), both scaled to a fixed host
// speed (see host.go). With --trace 1 it carries the per-layer split of
// the same traffic (see layers.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	// procs is the scheduler width. run.sh pins the process to one vCPU
	// (see host.go), and procs keeps an unpinned run to one as well, so
	// hosts of different sizes run the same interleaving of the client, the
	// handlers and the training worker.
	procs = 1
	// boots is how many times a run measures set-up; it reports the median.
	boots = 15
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: cold or warm")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workload != "cold" && o.workload != "warm" {
		return o, fmt.Errorf("unknown --workload %q (want cold or warm)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

func run(o options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	pool, err := poolPrograms()
	if err != nil {
		return nil, err
	}
	lib, err := poolLibrary(pool)
	if err != nil {
		return nil, err
	}

	n := boots
	if o.trace {
		n = 1 // set-up time is reported by untraced runs only
	}
	var setups []float64
	var inst *instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		// Collect the previous boot's garbage first, so that every boot
		// starts from the same heap.
		runtime.GC()
		var d time.Duration
		if inst, d, err = boot(lib, pool, o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, scaled(d, reference())/1e3)
	}
	defer inst.close()

	win := drive(inst, pool, o.seed, o.workload == "cold", o.seconds, lib.Refs)
	res := &result{Attempted: win.attempted, Failed: len(win.errs), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for i, e := range win.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "servebench: %d failures in all\n", len(win.errs))
			break
		}
		fmt.Fprintln(os.Stderr, "servebench:", e)
	}
	if o.trace {
		err = perLayer(res.Metrics, inst, win)
	} else {
		err = endToEnd(res.Metrics, win, setups)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// endToEnd reports what a client of the service sees: the round-trip
// latency of the successful requests and the median set-up time, both
// scaled to the reference speed (see host.go). Each request's latency is
// scaled by the reference kernel's run right after it, and the latency
// reported is the mean of the scaled latencies between their 10th and
// 90th percentile. Trimming drops the requests whose reference run caught
// a slower or a faster moment of the host than the request itself, which
// a plain mean keeps; unlike a median, the trimmed mean still averages
// over warm's two modes (a hit either does or does not displace
// co-occurrence pairs in the server's usage ledger, which costs tens of
// milliseconds), between which a median jumps. No tail percentile is
// reported: a cold run completes only a few dozen requests, too few for a
// tail with ten samples beyond it. Requests per second are not reported
// either: with one closed-loop client they are the inverse of the latency.
func endToEnd(m map[string]metric, win *window, setups []float64) error {
	var latencies []float64
	for _, s := range win.samples {
		if s.err == nil {
			latencies = append(latencies, scaled(s.latency, s.ref))
		}
	}
	if len(latencies) == 0 {
		return errors.New("no request succeeded")
	}
	sort.Float64s(latencies)
	tenth := len(latencies) / 10
	var sum float64
	for _, l := range latencies[tenth : len(latencies)-tenth] {
		sum += l
	}
	sort.Float64s(setups)
	m["latency_ms"] = metric{sum / float64(len(latencies)-2*tenth), "ms"}
	m["setup_s"] = metric{percentile(setups, 50), "s"}
	return nil
}

// percentile interpolates linearly between the closest ranks of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
