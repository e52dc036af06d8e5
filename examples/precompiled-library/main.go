// Precompiled-library: the paper's headline workflow for static (non-
// variational) programs. A pulse library is trained offline from a
// profiling set; a new, unseen program then compiles almost instantly
// because most of its gate groups are already covered.
//
//	go run ./examples/precompiled-library
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/grape"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

func main() {
	opts := accqoc.Options{
		Device: topology.Melbourne(),
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-3, MaxIterations: 300, Restarts: -1, Seed: 5},
			Search2Q: grape.SearchOptions{MinDuration: 150, MaxDuration: 1500, Resolution: 150},
		},
	}

	// --- Offline: profile three programs and train the library. ---
	comp := accqoc.New(opts)
	var profile []*circuit.Circuit
	for i := 0; i < 3; i++ {
		p, err := workload.Random(fmt.Sprintf("profile_%d", i), 6, 80, int64(40+i))
		if err != nil {
			log.Fatal(err)
		}
		profile = append(profile, p.Circuit)
	}
	t0 := time.Now()
	prof, err := comp.Profile(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static pre-compilation: %d unique groups trained in %v (%d iterations)\n",
		prof.UniqueGroups, time.Since(t0).Round(time.Millisecond), prof.Stats.TotalIterations)

	// Persist the library in accqoc-server's snapshot format — this is the
	// artifact a fleet of compile jobs would share.
	dir, err := os.MkdirTemp("", "accqoc-lib")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	libPath := filepath.Join(dir, "pulses.snap")
	if err := libstore.SaveLibraryFingerprint(comp.Library(), libPath, libstore.FormatGob, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library saved: %s (%d pulses)\n", libPath, len(comp.Library().Entries))

	// --- Online: a NEW program compiles against the loaded library. ---
	lib, _, err := libstore.LoadSnapshotFingerprint(libPath)
	if err != nil {
		log.Fatal(err)
	}
	online := accqoc.New(opts)
	online.SetLibrary(lib)

	target, err := workload.Random("unseen", 6, 80, 999)
	if err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	res, err := online.Compile(target.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnew program %q: %d gates\n", target.Name, target.Circuit.GateCount())
	fmt.Printf("coverage: %.1f%% (%d of %d groups pre-compiled)\n",
		100*res.CoverageRate, res.CoveredGroups, res.TotalGroups)
	fmt.Printf("dynamic training: %d uncovered groups, %d iterations\n",
		res.UncoveredUnique, res.TrainingIterations)
	fmt.Printf("latency: %.0f ns QOC vs %.0f ns gate-based (%.2fx)\n",
		res.OverallLatencyNs, res.GateBasedLatencyNs, res.LatencyReduction)
	fmt.Printf("online compile time: %v\n", time.Since(t1).Round(time.Millisecond))
}
