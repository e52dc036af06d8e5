// Example pulse-server: the pulse-library service end to end, in one
// process. It starts the HTTP compilation server on a loopback port,
// submits the same circuit three times — once cold, once concurrently
// duplicated, once warm — and shows in /v1/library/stats that the cold
// request paid for all GRAPE training, the concurrent duplicates were
// collapsed by singleflight, and the warm request cost only library hits.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"accqoc"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/server"
	"accqoc/internal/topology"
)

const program = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
t q[1];
cx q[1],q[2];
h q[2];
`

func main() {
	srv := server.New(server.Config{Compile: fastOptions(), Workers: 4})
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("pulse-library server on %s\n\n", base)

	// 1. Cold: every unique group trains.
	cold, wall := compileOnce(base)
	fmt.Printf("cold:  %5.0f ms wall  coverage %3.0f%%  trained %d unique groups\n",
		wall, 100*cold.CoverageRate, cold.UncoveredUnique)
	fmt.Printf("       latency %.0f ns QOC vs %.0f ns gate-based (%.2fx), fidelity %.4f\n",
		cold.QOCLatencyNs, cold.GateLatencyNs, cold.LatencyReduction, cold.EstimatedFidelity)

	// 2. Re-warm a fresh server concurrently to show singleflight: all four
	// clients need the same groups, the store trains each exactly once.
	srv2 := server.New(server.Config{Compile: fastOptions(), Workers: 4})
	defer srv2.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv2 := &http.Server{Handler: srv2.Handler()}
	go httpSrv2.Serve(ln2)
	defer httpSrv2.Close()
	base2 := "http://" + ln2.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); compileOnce(base2) }()
	}
	wg.Wait()
	st2 := srv2.Store().Stats()
	fmt.Printf("\n4 concurrent duplicate clients on a cold server:\n")
	fmt.Printf("       trainings %d (exactly one per unique group), deduped %d, entries %d\n",
		st2.Trainings, st2.DedupSuppressed, st2.Entries)

	// 3. Warm: same circuit again on the first server.
	warm, wallWarm := compileOnce(base)
	fmt.Printf("\nwarm:  %5.2f ms wall  coverage %3.0f%%  warm-served %v\n",
		wallWarm, 100*warm.CoverageRate, warm.WarmServed)
	if wallWarm > 0 {
		fmt.Printf("       cold/warm speedup: %.0fx\n", wall/wallWarm)
	}

	var stats server.StatsResponse
	getJSON(base+"/v1/library/stats", &stats)
	fmt.Printf("\nlibrary stats: %d entries, %d hits, %d misses, %d trainings\n",
		stats.Library.Entries, stats.Library.Hits, stats.Library.Misses, stats.Library.Trainings)
	fmt.Printf("server stats:  %d requests, %.1f ms total compile time\n",
		stats.Server.Requests, stats.Server.TotalCompileMillis)
}

// fastOptions keeps GRAPE budgets small so the demo finishes in seconds.
func fastOptions() accqoc.Options {
	return accqoc.Options{
		Device: topology.Linear(3),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}
}

func compileOnce(base string) (server.CompileResponse, float64) {
	body, _ := json.Marshal(server.CompileRequest{QASM: program})
	start := time.Now()
	resp, err := http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("compile: status %d", resp.StatusCode)
	}
	return out, float64(time.Since(start)) / float64(time.Millisecond)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
