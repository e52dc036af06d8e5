package precompile

import (
	"fmt"
	"time"

	"accqoc/internal/cmat"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
)

// TrainGroup trains a single unique group in isolation. The optional seed
// entry warm-starts the optimizer (its pulse) and brackets the latency
// search (its latency becomes the binary-search hint); a seed of another
// size is ignored. A nil return error with a nil entry never happens:
// failure to converge within the bracket is an error so callers can price
// the group gate-based.
func TrainGroup(g *grouping.UniqueGroup, cfg Config, seed *Entry) (*Entry, error) {
	u, err := g.Group.Unitary()
	if err != nil {
		return nil, err
	}
	if seed != nil && seed.NumQubits != g.NumQubits {
		seed = nil
	}
	return train(g.Key, g.NumQubits, g.Count, CanonicalUnitary(u), cfg.withDefaults(), seed)
}

// RetrainEntry re-trains a library entry toward target unitary u under a
// new physical model (cfg carries a fresh calibration epoch's Hamiltonian)
// — the unit of work of the cross-epoch recompilation pipeline. The old
// entry is its own seed: its pulse warm-starts the optimizer and its
// latency is the binary-search hint, so a small calibration drift
// converges in a handful of iterations (the paper's warm-start thesis
// applied across recalibrations). An entry with neither pulse nor latency
// retrains cold — the baseline the warm path is measured against.
func RetrainEntry(e *Entry, u *cmat.Matrix, cfg Config) (*Entry, error) {
	return train(e.Key, e.NumQubits, e.Frequency, u, cfg.withDefaults(), e)
}

// train is the one training unit behind Execute, TrainGroup and
// RetrainEntry: a latency binary search toward target, warm-started by
// seed when one is given — its pulse (if any) seeds the optimizer and its
// latency is the search hint. It stamps the entry's cost provenance
// (TrainWallNs, Seeded) and notifies cfg.Observer. cfg carries its
// defaults.
func train(key string, numQubits, frequency int, target *cmat.Matrix, cfg Config, seed *Entry) (*Entry, error) {
	sys, err := hamiltonian.ForQubits(numQubits, cfg.Ham)
	if err != nil {
		return nil, err
	}
	gopts := cfg.Grape
	gopts.Segments = SegmentsFor(numQubits)
	sopts := cfg.searchFor(numQubits)
	var seedPulse *pulse.Pulse
	if seed != nil {
		seedPulse = seed.Pulse
		sopts.HintDuration = seed.LatencyNs
	}
	begin := time.Now()
	res, err := grape.CompileBinarySearch(sys, target, gopts, sopts, seedPulse)
	wall := time.Since(begin)
	if err != nil {
		return nil, fmt.Errorf("precompile: group %s unreachable in bracket: %w", key, err)
	}
	if cfg.Observer != nil {
		cfg.Observer(numQubits, res.TotalIterations, res.Infidelity, seedPulse != nil)
	}
	return &Entry{
		Key:         key,
		NumQubits:   numQubits,
		Pulse:       res.Pulse,
		LatencyNs:   res.Duration,
		Iterations:  res.TotalIterations,
		Frequency:   frequency,
		Infidelity:  res.Infidelity,
		TrainWallNs: float64(wall.Nanoseconds()),
		Seeded:      seedPulse != nil,
	}, nil
}

// Merge copies every entry of other into l, overwriting on key collision.
// Library itself is not safe for concurrent use — serving paths should go
// through libstore.Store, which wraps a Library snapshot behind sharded
// locks.
func (l *Library) Merge(other *Library) {
	if other == nil {
		return
	}
	for k, e := range other.Entries {
		l.Entries[k] = e
	}
}

// Clone returns a shallow copy of the library: a fresh entry map sharing
// the (immutable-by-convention) entries.
func (l *Library) Clone() *Library {
	out := NewLibrary()
	out.Merge(l)
	return out
}

// Keys computes the stable canonical key of every group occurrence in a
// grouping, in occurrence order. Keys are content addresses: two groups
// share a key iff their unitaries match under the paper's §IV-C
// equivalence (global phase, and qubit order for two-qubit groups).
func Keys(gr *grouping.Grouping) ([]string, error) {
	keys := make([]string, len(gr.Groups))
	for i, g := range gr.Groups {
		k, err := g.Key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}
