// Command accqoc compiles an OpenQASM 2.0 program to control pulses with
// the AccQOC workflow and reports latency against the gate-based baseline.
//
// Usage:
//
//	accqoc -in program.qasm                      # compile cold
//	accqoc -in program.qasm -lib pulses.snap     # use / extend a library
//	accqoc -in program.qasm -policy swap2b3l -device linear16
//
// With -server it becomes a load-generating client against a running
// accqoc-server, demonstrating the warm-cache speedup end to end:
//
//	accqoc -server http://localhost:8080 -in program.qasm -requests 20 -concurrency 4
//	accqoc -server http://localhost:8080 -workload qft:4 -requests 10
//	accqoc -server http://localhost:8080 -workload qft:4 -devices melbourne:0.7,linear5:0.3
//	accqoc -server http://localhost:8080 -workload qft:4 -circuits     # scheduled pulse programs
//	accqoc -server http://localhost:8080 -workload qft:4 -async        # async job API: 202 + poll
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/crosstalk"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

func gopts(fidelity float64, maxIter int) grape.Options {
	return grape.Options{TargetInfidelity: fidelity, MaxIterations: maxIter}
}

func main() {
	in := flag.String("in", "", "input OpenQASM 2.0 file (required unless -workload)")
	policyName := flag.String("policy", "map2b4l", "grouping policy (see Table I): map2b2l|map2b3l|map2b4l|swap2b2l|swap2b3l|swap2b4l")
	deviceName := flag.String("device", "melbourne", "device: melbourne | linear<N> | grid<R>x<C>")
	libPath := flag.String("lib", "", "pulse-library snapshot (accqoc-server's format) to load and update")
	fidelity := flag.Float64("fidelity", 1e-3, "GRAPE target infidelity")
	maxIter := flag.Int("max-iter", 600, "GRAPE iteration cap per optimization")
	verbose := flag.Bool("v", false, "print group-level detail")
	serverURL := flag.String("server", "", "accqoc-server base URL; switches to client/loadgen mode")
	workloadSpec := flag.String("workload", "", "workload spec for -server mode (qft:N | named:NAME | random:Q:G:S)")
	requests := flag.Int("requests", 10, "number of requests to send in -server mode")
	concurrency := flag.Int("concurrency", 4, "concurrent in-flight requests in -server mode")
	deviceMix := flag.String("devices", "",
		"weighted multi-device traffic mix for -server mode, e.g. melbourne:0.7,linear5:0.3 (empty = default device)")
	circuits := flag.Bool("circuits", false,
		"loadgen against POST /v1/circuits/compile: whole-program scheduled pulse programs instead of per-group compiles")
	jsonOut := flag.Bool("json", false,
		"-server mode: emit one machine-readable JSON summary on stdout instead of the text report")
	asyncMode := flag.Bool("async", false,
		"-server mode: submit through the async job API (?async=1) and poll /v1/jobs/{id} to completion")
	flag.Parse()

	if *serverURL != "" {
		if err := runClient(*serverURL, *in, *workloadSpec, *deviceMix, *requests, *concurrency, *circuits, *asyncMode, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	prog, err := qasm.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	policy, err := grouping.PolicyByName(*policyName)
	if err != nil {
		fatal(err)
	}
	dev, err := topology.Parse(*deviceName)
	if err != nil {
		fatal(err)
	}

	comp := accqoc.New(accqoc.Options{
		Device: dev,
		Policy: policy,
		Precompile: precompile.Config{
			Grape: gopts(*fidelity, *maxIter),
		},
	})
	if *libPath != "" {
		n, lerr := loadLibrary(comp, *libPath)
		if lerr != nil {
			fatal(lerr)
		}
		if n > 0 {
			fmt.Printf("loaded %d library pulses from %s\n", n, *libPath)
		}
	}

	start := time.Now()
	res, err := comp.Compile(prog)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("program: %s (%d qubits, %d gates)\n", *in, prog.NumQubits, prog.GateCount())
	fmt.Printf("device:  %s, policy %s\n", dev.Name, policy.Name)
	fmt.Printf("mapped:  %d gates, %d swaps inserted, crosstalk metric %d\n",
		res.Physical.GateCount(), res.MapResult.SwapCount, crosstalk.MetricDAG(res.DAG, dev))
	fmt.Printf("groups:  %d occurrences, coverage %.1f%% (%d covered), %d uncovered unique\n",
		res.TotalGroups, 100*res.CoverageRate, res.CoveredGroups, res.UncoveredUnique)
	fmt.Printf("training: %d GRAPE iterations in %v\n", res.TrainingIterations, res.TrainingTime.Round(time.Millisecond))
	fmt.Printf("latency: %.0f ns QOC vs %.0f ns gate-based (%.2fx reduction)\n",
		res.OverallLatencyNs, res.GateBasedLatencyNs, res.LatencyReduction)
	fmt.Printf("estimated fidelity: %.4f\n", res.EstimatedFidelity)
	fmt.Printf("total wall time: %v\n", elapsed.Round(time.Millisecond))

	if *verbose {
		for i, g := range res.Grouping.Groups {
			fmt.Println(groupLine(i, g))
		}
	}
	if *libPath != "" {
		if err := libstore.SaveLibraryFingerprint(comp.Library(), *libPath, libstore.FormatGob, ""); err != nil {
			fatal(err)
		}
		fmt.Printf("library saved to %s (%d pulses)\n", *libPath, len(comp.Library().Entries))
	}
}

// loadLibrary seeds comp from the pulse-library snapshot at path and
// returns its entry count; a missing file leaves the library empty. The
// snapshot decoder refuses a damaged file, an entry without a pulse and a
// mis-keyed entry. No device fingerprint is checked: the file is the
// caller's own library.
func loadLibrary(comp *accqoc.Compiler, path string) (int, error) {
	lib, _, err := libstore.LoadSnapshotFingerprint(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	comp.SetLibrary(lib)
	return len(lib.Entries), nil
}

// groupLine is group i's -v report line: its qubits, gate count and depth
// (the number of ASAP layers of its local circuit).
func groupLine(i int, g *grouping.Group) string {
	lc := g.LocalCircuit()
	return fmt.Sprintf("  group %3d: qubits %v, %d gates, depth %d",
		i, g.Qubits, lc.GateCount(), circuit.BuildDAG(lc).NumLayers())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accqoc:", err)
	os.Exit(1)
}
