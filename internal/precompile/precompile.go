// Package precompile implements the paper's static pre-compilation (§IV)
// and similarity-accelerated training (§V): it trains a pulse library for a
// category of deduplicated gate groups with per-group latency binary
// search, orders the training by a Prim MST over the similarity graph so
// every group warm-starts from its most similar predecessor, measures
// coverage of new programs against the library, and re-optimizes the most
// frequent group with a larger budget (§IV-G).
package precompile

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"accqoc/internal/cmat"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
	"accqoc/internal/similarity"
)

// Config tunes library construction. The zero value selects documented
// defaults.
type Config struct {
	// Ham configures the physical model.
	Ham hamiltonian.Config
	// Grape is the base optimizer configuration. Segments is overridden
	// per group size (see SegmentsFor).
	Grape grape.Options
	// Similarity selects the warm-start metric; default TraceFid
	// ("fidelity1"), the function the paper found best (Fig. 8).
	Similarity similarity.Func
	// Search bounds per group size; zero values pick defaults scaled to
	// the model's speed limits.
	Search1Q grape.SearchOptions
	Search2Q grape.SearchOptions
	// Observer, when set, is notified once per successful training (every
	// path trains through one unit) with the group size, summed optimizer
	// iterations, final infidelity, and whether the run was warm-started.
	// Observability taps it for per-size iteration and infidelity
	// histograms; it must be cheap and must not retain references. Nil
	// costs one pointer check per training.
	Observer func(numQubits, iterations int, infidelity float64, seeded bool)
}

func (c Config) withDefaults() Config {
	if c.Similarity == "" {
		c.Similarity = similarity.TraceFid
	}
	if c.Grape.TargetInfidelity == 0 {
		c.Grape.TargetInfidelity = 1e-3
	}
	if c.Grape.MaxIterations == 0 {
		c.Grape.MaxIterations = 600
	}
	if c.Search1Q.MaxDuration == 0 {
		c.Search1Q = grape.SearchOptions{MinDuration: 10, MaxDuration: 160, Resolution: 10}
	}
	if c.Search2Q.MaxDuration == 0 {
		c.Search2Q = grape.SearchOptions{MinDuration: 150, MaxDuration: 1500, Resolution: 50}
	}
	return c
}

// SegmentsFor returns the pulse segment count per group size: two-qubit
// targets need a denser waveform for reliable convergence.
func SegmentsFor(numQubits int) int {
	switch numQubits {
	case 1:
		return 12
	case 2:
		return 32
	default:
		return 40
	}
}

// Entry is one trained library pulse. The cost-provenance fields
// (TrainWallNs, Seeded, Hits) are zero-valued on entries predating them,
// so old snapshots decode unchanged (gob and omitempty both skip zeros).
type Entry struct {
	Key        string       `json:"key"`
	NumQubits  int          `json:"num_qubits"`
	Pulse      *pulse.Pulse `json:"pulse"`
	LatencyNs  float64      `json:"latency_ns"`
	Iterations int          `json:"iterations"` // training cost
	Frequency  int          `json:"frequency"`  // occurrences during profiling
	Infidelity float64      `json:"infidelity"`
	// TrainWallNs is the wall-clock time the training that produced this
	// pulse spent in the optimizer (binary search included).
	TrainWallNs float64 `json:"train_wall_ns,omitempty"`
	// Seeded records whether that training warm-started from a seed pulse.
	Seeded bool `json:"seeded,omitempty"`
	// Hits carries the per-entry lookup count across snapshot save/load —
	// the store's live counter is authoritative while the entry is
	// resident (see libstore.Store.SnapshotWithHits).
	Hits int64 `json:"hits,omitempty"`
}

// Library is a pulse cache keyed by canonical group matrix.
type Library struct {
	Entries map[string]*Entry `json:"entries"`
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{Entries: map[string]*Entry{}} }

// Lookup returns the entry for a group, if covered.
func (l *Library) Lookup(g *grouping.Group) (*Entry, bool, error) {
	key, err := g.Key()
	if err != nil {
		return nil, false, err
	}
	e, ok := l.Entries[key]
	return e, ok, nil
}

// PulseFor returns the pulse driving the given unitary: the stored
// canonical pulse, with per-qubit control channels exchanged when the
// group's orientation is the mirror of the canonical one. Callers that
// already hold the occurrence's canonical key and orientation flag (the
// key pass of accqoc.PlanGroups) should look the entry up directly and
// use OrientPulse — this method pays a fresh orientation search.
func (l *Library) PulseFor(u *cmat.Matrix) (*pulse.Pulse, bool) {
	key, swapped := grouping.CanonicalOrientation(u)
	e, ok := l.Entries[key]
	if !ok {
		return nil, false
	}
	return OrientPulse(e.Pulse, swapped), true
}

// OrientPulse returns the channel-correct waveform for one occurrence of
// a library pulse: a clone, with the per-qubit drive channels exchanged
// when the occurrence mirrors the canonical orientation. Nil-safe.
func OrientPulse(p *pulse.Pulse, mirrored bool) *pulse.Pulse {
	if p == nil {
		return nil
	}
	out := p.Clone()
	if mirrored && out.Channels() == 4 {
		// Channels are x0,y0,x1,y1: exchange qubit 0 and 1 drives.
		out.Amps[0], out.Amps[2] = out.Amps[2], out.Amps[0]
		out.Amps[1], out.Amps[3] = out.Amps[3], out.Amps[1]
		out.Labels[0], out.Labels[2] = out.Labels[2], out.Labels[0]
		out.Labels[1], out.Labels[3] = out.Labels[3], out.Labels[1]
	}
	return out
}

// GroupStat records one training step for reporting.
type GroupStat struct {
	Key        string
	NumQubits  int
	Iterations int
	LatencyNs  float64
	WarmFrom   string // canonical key of the warm-start source, "" for identity
	Converged  bool
}

// BuildStats summarizes a library build.
type BuildStats struct {
	TotalIterations int
	Elapsed         time.Duration
	PerGroup        []GroupStat
	Failed          []string // keys that never converged (excluded from the library)
}

// Build trains pulses for every unique group in the order Plan gives the
// category: per size class by the similarity MST, with warm starts along
// tree edges.
func Build(uniq []*grouping.UniqueGroup, cfg Config) (*Library, *BuildStats, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	steps, err := Plan(uniq, cfg.Similarity)
	if err != nil {
		return nil, nil, err
	}
	lib := NewLibrary()
	stats := &BuildStats{}
	stats.add(steps, Execute(steps, cfg, &mapStore{lib: lib}))
	stats.Elapsed = time.Since(start)
	return lib, stats, nil
}

// add records executed steps: a failed step stays uncovered (it compiles
// dynamically later), and a step names its MST parent as its warm source
// only when the parent's pulse seeded it.
func (st *BuildStats) add(steps []Step, entries []*Entry) {
	for i, s := range steps {
		g := GroupStat{Key: s.Group.Key, NumQubits: s.Group.NumQubits}
		if e := entries[i]; e == nil {
			st.Failed = append(st.Failed, s.Group.Key)
		} else {
			g.Iterations, g.LatencyNs, g.Converged = e.Iterations, e.LatencyNs, true
			if e.Seeded && s.WarmFrom >= 0 {
				g.WarmFrom = steps[s.WarmFrom].Group.Key
			}
			st.TotalIterations += e.Iterations
		}
		st.PerGroup = append(st.PerGroup, g)
	}
}

func (c Config) searchFor(size int) grape.SearchOptions {
	switch size {
	case 1:
		return c.Search1Q
	default:
		s := c.Search2Q
		if size > 2 {
			// Larger groups hold proportionally more entangling content.
			s.MaxDuration *= float64(size - 1)
			s.Resolution *= 2
		}
		return s
	}
}

// CanonicalUnitary returns the orientation whose key is canonical, so that
// library pulses always drive the canonical form.
func CanonicalUnitary(u *cmat.Matrix) *cmat.Matrix {
	if _, swapped := grouping.CanonicalOrientation(u); swapped {
		return swapQubits(u)
	}
	return u
}

func swapQubits(u *cmat.Matrix) *cmat.Matrix {
	s := cmat.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	})
	return cmat.MulChain(s, u, s)
}

// Coverage reports which fraction of a program's group occurrences the
// library already covers (§V-A):
//
//	Coverage Rate = #groups covered / #groups of the program.
func Coverage(gr *grouping.Grouping, lib *Library) (rate float64, covered, total int, err error) {
	total = len(gr.Groups)
	if total == 0 {
		return 1, 0, 0, nil
	}
	for _, g := range gr.Groups {
		_, ok, kerr := lib.Lookup(g)
		if kerr != nil {
			return 0, 0, 0, kerr
		}
		if ok {
			covered++
		}
	}
	return float64(covered) / float64(total), covered, total, nil
}

// OptimizeMostFrequent retrains the highest-frequency entry with an
// enlarged budget — more restarts, a finer latency search — and keeps the
// better pulse (§IV-G). It returns the entry and the latency improvement
// in nanoseconds (0 when no improvement was found).
func OptimizeMostFrequent(lib *Library, cfg Config) (*Entry, float64, error) {
	cfg = cfg.withDefaults()
	var target *Entry
	for _, e := range lib.Entries {
		if target == nil || e.Frequency > target.Frequency ||
			(e.Frequency == target.Frequency && e.Key < target.Key) {
			target = e
		}
	}
	if target == nil {
		return nil, 0, fmt.Errorf("precompile: empty library")
	}
	sys, err := hamiltonian.ForQubits(target.NumQubits, cfg.Ham)
	if err != nil {
		return nil, 0, err
	}
	// Recover the trained unitary from the stored pulse.
	u := grape.Propagate(sys, target.Pulse)
	gopts := cfg.Grape
	gopts.Segments = SegmentsFor(target.NumQubits)
	gopts.MaxIterations *= 2
	gopts.Restarts = 4
	sopts := cfg.searchFor(target.NumQubits)
	sopts.Resolution /= 2
	sopts.MaxDuration = target.LatencyNs // only look below the current latency
	res, err := grape.CompileBinarySearch(sys, u, gopts, sopts, target.Pulse)
	if err != nil || !res.Converged || res.Duration >= target.LatencyNs {
		return target, 0, nil // keep the existing pulse
	}
	gain := target.LatencyNs - res.Duration
	target.Pulse = res.Pulse
	target.LatencyNs = res.Duration
	target.Infidelity = res.Infidelity
	return target, gain, nil
}

// Save writes the library as JSON.
func (l *Library) Save(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a library written by Save.
func Load(path string) (*Library, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := NewLibrary()
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("precompile: corrupt library %s: %w", path, err)
	}
	return l, nil
}
