// Command accqoc-repro regenerates the paper's evaluation: every table and
// figure of §VI, printed as the rows/series the paper reports.
//
// Usage:
//
//	accqoc-repro                 # run everything at small scale
//	accqoc-repro -scale full     # the paper-sized run (hours)
//	accqoc-repro -only fig7,fig15
//	accqoc-repro -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"accqoc/internal/experiments"
)

type experiment struct {
	name string
	desc string
	run  func(sc experiments.Scale) error
}

func main() {
	scale := flag.String("scale", "small", "experiment scale: small | full")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or full)\n", *scale)
		os.Exit(2)
	}

	exps := []experiment{
		{"table1", "grouping-policy parameter settings (Table I)", func(sc experiments.Scale) error {
			experiments.Table1(os.Stdout)
			return nil
		}},
		{"table2", "benchmark instruction mixes (Table II)", func(sc experiments.Scale) error {
			experiments.Table2(os.Stdout)
			return nil
		}},
		{"fig5", "crosstalk error-rate inflation (Fig. 5)", func(sc experiments.Scale) error {
			experiments.Fig5(os.Stdout)
			return nil
		}},
		{"fig7", "pre-compilation coverage under map2b4l (Fig. 7)", func(sc experiments.Scale) error {
			_, err := experiments.Fig7(os.Stdout, sc)
			return err
		}},
		{"fig8", "iteration reduction per similarity function (Fig. 8)", func(sc experiments.Scale) error {
			_, err := experiments.Fig8(os.Stdout, sc)
			return err
		}},
		{"fig11", "crosstalk metric, baseline vs aware mapping (Fig. 11)", func(sc experiments.Scale) error {
			_, err := experiments.Fig11(os.Stdout, sc)
			return err
		}},
		{"fig12", "latency reduction, programs × policies (Fig. 12)", func(sc experiments.Scale) error {
			_, err := experiments.Fig12(os.Stdout, sc)
			return err
		}},
		{"fig13", "per-program iteration reduction (Fig. 13)", func(sc experiments.Scale) error {
			_, err := experiments.Fig13(os.Stdout, sc)
			return err
		}},
		{"fig14", "group-count growth vs gate count (Fig. 14)", func(sc experiments.Scale) error {
			_, err := experiments.Fig14(os.Stdout, sc)
			return err
		}},
		{"fig15", "AccQOC vs brute-force QOC (Fig. 15)", func(sc experiments.Scale) error {
			_, err := experiments.Fig15(os.Stdout, sc)
			return err
		}},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.name] = true
		}
		var unknown []string
		for n := range selected {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "unknown experiment(s): %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	start := time.Now()
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s — %s (scale %s) ===\n", e.name, e.desc, sc.Name)
		t0 := time.Now()
		if err := e.run(sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("all experiments finished in %v\n", time.Since(start).Round(time.Second))
}
