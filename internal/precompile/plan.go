package precompile

import (
	"sort"
	"sync"

	"accqoc/internal/cmat"
	"accqoc/internal/grouping"
	"accqoc/internal/simgraph"
	"accqoc/internal/similarity"
)

// Step is one training of a compilation sequence (§V-C): a unique group,
// its canonical target unitary, and the MST edge it warm-starts along.
type Step struct {
	Group *grouping.UniqueGroup
	// Target is the group's canonical target unitary. Nil defers building
	// it until the step actually trains (a hit never pays for it).
	Target *cmat.Matrix
	// WarmFrom is the plan index of the step's MST parent, -1 when the
	// step is rooted at the identity.
	WarmFrom int
	// Distance is the weight of the MST edge into this step.
	Distance float64
}

// Plan orders groups into the paper's compilation sequence: per size
// class, in ascending size, a Prim MST over the similarity graph rooted
// at the identity fixes both the training order and each step's warm-start
// parent. A lone group of its size is one identity-rooted step. Groups
// keep their input order within a class (it breaks MST ties), and each
// canonical target is built once here. fn "" selects TraceFid.
func Plan(groups []*grouping.UniqueGroup, fn similarity.Func) ([]Step, error) {
	if fn == "" {
		fn = similarity.TraceFid
	}
	bySize := map[int][]*grouping.UniqueGroup{}
	for _, g := range groups {
		bySize[g.NumQubits] = append(bySize[g.NumQubits], g)
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	steps := make([]Step, 0, len(groups))
	for _, size := range sizes {
		class := bySize[size]
		us := make([]*cmat.Matrix, len(class))
		for i, g := range class {
			u, err := g.Group.Unitary()
			if err != nil {
				return nil, err
			}
			us[i] = CanonicalUnitary(u)
		}
		if len(class) == 1 {
			steps = append(steps, Step{Group: class[0], Target: us[0], WarmFrom: -1})
			continue
		}
		sg, err := simgraph.Build(us, fn)
		if err != nil {
			return nil, err
		}
		mst, err := sg.PrimMST(0)
		if err != nil {
			return nil, err
		}
		at := make([]int, len(class)) // class index → plan index
		for _, cs := range mst.CompilationSequence() {
			warm := -1
			if cs.WarmFrom >= 0 {
				warm = at[cs.WarmFrom]
			}
			at[cs.Group] = len(steps)
			steps = append(steps, Step{Group: class[cs.Group], Target: us[cs.Group], WarmFrom: warm, Distance: cs.Distance})
		}
	}
	return steps, nil
}

// Store is the pulse library Execute trains through.
type Store interface {
	// GetOrTrain returns the entry stored under g.Key, calling train only
	// when no entry is stored or being trained under that key.
	GetOrTrain(g *grouping.UniqueGroup, train func() (*Trained, error)) (*Entry, error)
	// Nearest returns the stored entry closest to target among those
	// admitted as its warm seed, and its similarity distance.
	Nearest(target *cmat.Matrix, numQubits int) (*Entry, float64, bool)
}

// Trained is one training's result as Execute hands it to its Store.
type Trained struct {
	Entry *Entry
	// Target is the unitary the entry was trained toward; the pulse
	// reaches it within TargetInfidelity, so a seed index can file the
	// entry under it without propagating the pulse.
	Target *cmat.Matrix
	// SeedDistance is the similarity distance to the pulse that seeded
	// the training; meaningful only when Entry.Seeded.
	SeedDistance float64
}

// Execute trains a plan's steps in order through store and returns each
// step's entry, nil where it failed. Every step is seeded by one rule: a
// trained MST parent always lends its latency as the search hint, and its
// pulse when the edge is within similarity.WarmThreshold; an
// identity-rooted step, or one whose parent failed, asks store.Nearest.
// The seed and the target are resolved inside the training closure, so a
// hit or a joined in-flight training pays for neither.
func Execute(steps []Step, cfg Config, store Store) []*Entry {
	cfg = cfg.withDefaults()
	entries := make([]*Entry, len(steps))
	for i, st := range steps {
		e, err := store.GetOrTrain(st.Group, func() (*Trained, error) {
			target := st.Target
			if target == nil {
				u, err := st.Group.Group.Unitary()
				if err != nil {
					return nil, err
				}
				target = CanonicalUnitary(u)
			}
			seed, dist := warmStart(st, entries, target, cfg.Similarity, store)
			e, err := train(st.Group.Key, st.Group.NumQubits, st.Group.Count, target, cfg, seed)
			if err != nil {
				return nil, err
			}
			return &Trained{Entry: e, Target: target, SeedDistance: dist}, nil
		})
		if err == nil {
			entries[i] = e
		}
	}
	return entries
}

// warmStart picks one step's seed (see Execute) and its distance.
func warmStart(st Step, entries []*Entry, target *cmat.Matrix, fn similarity.Func, store Store) (*Entry, float64) {
	if st.WarmFrom >= 0 {
		if parent := entries[st.WarmFrom]; parent != nil {
			seed := &Entry{NumQubits: parent.NumQubits, LatencyNs: parent.LatencyNs}
			if st.Distance <= similarity.WarmThreshold(fn, target.Rows) {
				seed.Pulse = parent.Pulse
			}
			return seed, st.Distance
		}
	}
	if seed, dist, ok := store.Nearest(target, st.Group.NumQubits); ok {
		return seed, dist
	}
	return nil, 0
}

// mapStore is the batch builds' Store: a map-backed Library, locked so
// ParallelBuild's workers can share it. Nearest finds nothing, so
// identity-rooted steps train cold.
type mapStore struct {
	mu  sync.Mutex
	lib *Library
}

func (s *mapStore) GetOrTrain(g *grouping.UniqueGroup, train func() (*Trained, error)) (*Entry, error) {
	s.mu.Lock()
	e, ok := s.lib.Entries[g.Key]
	s.mu.Unlock()
	if ok {
		return e, nil
	}
	t, err := train()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lib.Entries[g.Key] = t.Entry
	s.mu.Unlock()
	return t.Entry, nil
}

func (s *mapStore) Nearest(*cmat.Matrix, int) (*Entry, float64, bool) { return nil, 0, false }
