// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): each Fig*/Table* function computes the underlying data
// with the real pipeline and renders the same rows/series the paper
// reports. The cmd/accqoc-repro binary and the repository-root benchmarks
// are thin wrappers over this package.
//
// Scales: the paper's full suite takes hours of QOC training; the Small
// scale subsamples programs and group categories so the complete set of
// experiments reproduces in minutes while preserving every trend. Absolute
// numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"accqoc/internal/circuit"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// Scale bounds the experiment sizes.
type Scale struct {
	Name string
	// ProfilePrograms is the profiling-set size (the paper uses ⅓ of the
	// 159-program suite).
	ProfilePrograms int
	// TargetPrograms is how many programs coverage/latency experiments
	// evaluate.
	TargetPrograms int
	// ProgramGates bounds random-program sizes [min, max].
	ProgramGates [2]int
	// AccelGroups caps the unique-group category for the Fig. 8 study.
	AccelGroups int
	// Fig13Groups caps per-program categories in Fig. 13.
	Fig13Groups int
	// Fig11Programs sizes the crosstalk-mapping comparison (training-free,
	// so it can use a larger sample than the QOC experiments).
	Fig11Programs int
	// Fig14Gates are the program sizes of the group-growth experiment.
	Fig14Gates []int
	// Fig15Programs is the AccQOC-vs-brute-force program count.
	Fig15Programs int
	// Fig15Gates bounds Fig. 15 program sizes (brute-force QOC trains
	// 3-qubit groups — expensive by design).
	Fig15Gates int
	// Fig12Custom overrides the Fig. 12 program set (used by quick
	// benchmarks; nil selects the named suite subset for the scale).
	Fig12Custom []*workload.Program
	// Grape tunes the training budget.
	Grape grape.Options
	// Search brackets.
	Search1Q, Search2Q grape.SearchOptions
}

// SmallScale finishes the full experiment set in minutes on a laptop core.
func SmallScale() Scale {
	return Scale{
		Name:            "small",
		ProfilePrograms: 8,
		TargetPrograms:  7,
		ProgramGates:    [2]int{150, 400},
		Fig11Programs:   20,
		AccelGroups:     22,
		Fig13Groups:     10,
		Fig14Gates:      []int{200, 400, 700, 1000, 1400, 2000},
		Fig15Programs:   2,
		Fig15Gates:      70,
		Grape: grape.Options{
			TargetInfidelity: 1e-3,
			MaxIterations:    300,
			Restarts:         -1,
			Seed:             7,
		},
		Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 160, Resolution: 15},
		Search2Q: grape.SearchOptions{MinDuration: 150, MaxDuration: 1500, Resolution: 100},
	}
}

// FullScale mirrors the paper's setup more closely (⅓ of 159 programs,
// tighter fidelity). Expect a multi-hour run.
func FullScale() Scale {
	s := SmallScale()
	s.Name = "full"
	s.ProfilePrograms = 53
	s.TargetPrograms = 20
	s.Fig11Programs = 53
	s.ProgramGates = [2]int{200, 2000}
	s.AccelGroups = 133
	s.Fig13Groups = 40
	s.Fig15Programs = 6
	s.Fig15Gates = 150
	s.Grape.TargetInfidelity = 1e-4
	s.Grape.MaxIterations = 800
	s.Grape.Restarts = 1
	s.Search2Q.Resolution = 50
	return s
}

// precompileConfig assembles the library-training configuration for a
// scale.
func (s Scale) precompileConfig() precompile.Config {
	return precompile.Config{
		Grape:    s.Grape,
		Search1Q: s.Search1Q,
		Search2Q: s.Search2Q,
	}
}

// profileSuite returns the deterministic profiling and target program sets
// for a scale: disjoint random suite programs sized within ProgramGates.
func (s Scale) profileSuite() (profile, targets []*workload.Program, err error) {
	rng := rand.New(rand.NewSource(2020))
	mk := func(tag string, i int) (*workload.Program, error) {
		span := s.ProgramGates[1] - s.ProgramGates[0]
		gates := s.ProgramGates[0]
		if span > 0 {
			gates += rng.Intn(span)
		}
		qubits := 4 + rng.Intn(11)
		return workload.Random(fmt.Sprintf("%s_%02d", tag, i), qubits, gates, int64(3000+i))
	}
	for i := 0; i < s.ProfilePrograms; i++ {
		p, perr := mk("prof", i)
		if perr != nil {
			return nil, nil, perr
		}
		profile = append(profile, p)
	}
	for i := 0; i < s.TargetPrograms; i++ {
		p, perr := mk("targ", 100+i)
		if perr != nil {
			return nil, nil, perr
		}
		targets = append(targets, p)
	}
	return profile, targets, nil
}

// DeviceFor picks the evaluation device: Melbourne when the program fits,
// a 4×4 grid otherwise (qft_16).
func DeviceFor(c *circuit.Circuit) *topology.Device {
	if c.NumQubits <= 14 {
		return topology.Melbourne()
	}
	return topology.Grid(4, 4)
}

// Table1 prints the six grouping-policy parameter settings (Table I).
func Table1(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tswap handling\t#qubits\t#layers")
	for _, p := range grouping.Policies {
		handling := "kept native"
		if p.DecomposeSwap {
			handling = "decomposed to 3 CX"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", p.Name, handling, p.MaxQubits, p.MaxLayers)
	}
	tw.Flush()
}

// Table2Rows computes the instruction mixes of the named suite.
func Table2Rows() ([]workload.MixRow, map[string]float64) {
	rows, avg := workload.TableII(workload.NamedSuite())
	flat := map[string]float64{}
	for n, f := range avg {
		flat[string(n)] = f
	}
	return rows, flat
}

// Table2 prints the Table II reproduction.
func Table2(w io.Writer) {
	rows, avg := Table2Rows()
	cols := []string{"x", "t", "h", "cx", "rz", "tdg"}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "program\ttotal\t%s\t%s\t%s\t%s\t%s\t%s\n",
		cols[0], cols[1], cols[2], cols[3], cols[4], cols[5])
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d", r.Name, r.Total)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%d", r.Counts[gateName(c)])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "all\t\t")
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprintf(tw, "%.1f%%", 100*avg[c])
	}
	fmt.Fprintln(tw)
	tw.Flush()
}
