// Package seedindex maintains the warm-start seed index of the serving
// path: a per-size nearest-neighbor structure over the covered entries of
// a pulse library. The paper's acceleration (§V-B/C, Figs. 8/13) comes
// from starting GRAPE at a similar group's pulse instead of a random
// waveform; the index makes that lookup cheap enough for the request path
// by caching each entry's achieved unitary once — computed by a single
// propagation at insert (or snapshot load) and never re-propagated — so a
// nearest-neighbor query costs only similarity distances over cached
// matrices, zero matrix exponentials.
//
// Admission uses similarity.WarmThreshold(fn, dim): the five similarity
// functions live on different scales (an entry-wise L1 distance between
// 4×4 unitaries is naturally an order of magnitude larger than a
// fidelity-style distance in [0,1]), so a fixed cut-off silently disables
// seeding for some of them.
//
// The index stays coherent with a libstore.Store through the store's
// mutation hook: Index implements the store's Hook interface (EntryAdded /
// EntryRemoved), so inserts and LRU evictions are mirrored without a
// second source of truth.
package seedindex

import (
	"sync"
	"sync/atomic"

	"accqoc/internal/cmat"
	"accqoc/internal/grape"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/similarity"
)

// Seed is a nearest-neighbor result: a covered pulse admissible as a
// GRAPE warm start for the queried unitary.
type Seed struct {
	// Key is the library key of the seeding entry.
	Key string
	// Pulse is the seeding waveform (immutable; callers must not mutate).
	Pulse *pulse.Pulse
	// LatencyNs is the seeding entry's latency — the binary-search hint.
	LatencyNs float64
	// Distance is the similarity distance to the queried unitary.
	Distance float64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries int `json:"entries"`
	// Lookups counts Nearest queries.
	Lookups int64 `json:"lookups"`
	// Seeded counts lookups that admitted a seed under the threshold.
	Seeded int64 `json:"seeded"`
	// Propagations counts insert-time unitary propagations — the only
	// place the index pays for matrix exponentials. Lookups never add to
	// this.
	Propagations int64 `json:"propagations"`
}

// indexed is one covered entry with its cached achieved unitary.
type indexed struct {
	key       string
	numQubits int
	pulse     *pulse.Pulse
	latencyNs float64
	unitary   *cmat.Matrix
}

// Index is a per-size seed index. All methods are safe for concurrent
// use.
type Index struct {
	fn  similarity.Func
	ham hamiltonian.Config

	mu      sync.RWMutex
	bySize  map[int]map[string]*indexed
	sizeOf  map[string]int
	systems map[int]*hamiltonian.System

	// parent is the cross-epoch seeding hook: the previous calibration
	// epoch's index. While a recalibration roll is in flight, Nearest
	// falls through to the parent, so cache misses in the fresh epoch
	// warm-start from the old epoch's pulses — near-perfect seeds for a
	// slightly drifted Hamiltonian. Cleared when the old epoch retires.
	parent atomic.Pointer[Index]

	// observer, when installed via SetObserver, sees every Nearest outcome
	// (candidate distance + admission verdict) — the observability tap for
	// the seed-distance histogram.
	observer atomic.Pointer[func(distance float64, admitted bool)]

	lookups, seeded, propagations atomic.Int64
}

// New returns an empty index using the given similarity function (empty
// selects TraceFid, the paper's best) and physical model.
func New(fn similarity.Func, ham hamiltonian.Config) *Index {
	if fn == "" {
		fn = similarity.TraceFid
	}
	return &Index{
		fn:      fn,
		ham:     ham,
		bySize:  map[int]map[string]*indexed{},
		sizeOf:  map[string]int{},
		systems: map[int]*hamiltonian.System{},
	}
}

// system returns the cached Hamiltonian for a group size, building it on
// first use.
func (x *Index) system(numQubits int) (*hamiltonian.System, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if sys, ok := x.systems[numQubits]; ok {
		return sys, nil
	}
	sys, err := hamiltonian.ForQubits(numQubits, x.ham)
	if err != nil {
		return nil, err
	}
	x.systems[numQubits] = sys
	return sys, nil
}

// Insert indexes a library entry, propagating its pulse once to cache the
// achieved unitary. Entries whose size has no physical model are ignored.
// A key already indexed with the identical pulse is a no-op, so callers
// holding the unitary can pre-index via InsertWithUnitary and let a
// subsequent hook-driven Insert skip the propagation entirely (entries
// are immutable by convention, so pointer equality identifies the pulse).
func (x *Index) Insert(e *precompile.Entry) {
	if e == nil || e.Pulse == nil {
		return
	}
	if x.indexed(e.Key, e.Pulse) {
		return
	}
	sys, err := x.system(e.NumQubits)
	if err != nil {
		return
	}
	// The one propagation this entry will ever cost the index.
	u := grape.Propagate(sys, e.Pulse)
	x.propagations.Add(1)
	x.insertUnitary(e, u)
}

// InsertWithUnitary indexes an entry whose unitary the caller already
// knows (e.g. the training target it just converged to), skipping the
// propagation entirely.
func (x *Index) InsertWithUnitary(e *precompile.Entry, u *cmat.Matrix) {
	if e == nil || e.Pulse == nil || u == nil {
		return
	}
	x.insertUnitary(e, u)
}

func (x *Index) insertUnitary(e *precompile.Entry, u *cmat.Matrix) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.sizeOf[e.Key]; ok && old != e.NumQubits {
		delete(x.bySize[old], e.Key)
	}
	class := x.bySize[e.NumQubits]
	if class == nil {
		class = map[string]*indexed{}
		x.bySize[e.NumQubits] = class
	}
	class[e.Key] = &indexed{
		key:       e.Key,
		numQubits: e.NumQubits,
		pulse:     e.Pulse,
		latencyNs: e.LatencyNs,
		unitary:   u,
	}
	x.sizeOf[e.Key] = e.NumQubits
}

// indexed reports whether key is present with this exact pulse.
func (x *Index) indexed(key string, p *pulse.Pulse) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	sz, ok := x.sizeOf[key]
	if !ok {
		return false
	}
	ent := x.bySize[sz][key]
	return ent != nil && ent.pulse == p
}

// Remove drops an entry (e.g. after a store eviction). Unknown keys are
// a no-op.
func (x *Index) Remove(key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	size, ok := x.sizeOf[key]
	if !ok {
		return
	}
	delete(x.bySize[size], key)
	delete(x.sizeOf, key)
}

// AddLibrary indexes every entry of a library (one propagation each) —
// the snapshot-load path.
func (x *Index) AddLibrary(lib *precompile.Library) {
	if lib == nil {
		return
	}
	for _, e := range lib.Entries {
		x.Insert(e)
	}
}

// EntryAdded satisfies libstore's mutation Hook: new or replaced store
// entries are indexed. It runs under the store's lock, so it must
// not call back into the store (it doesn't).
func (x *Index) EntryAdded(e *precompile.Entry) { x.Insert(e) }

// EntryRemoved satisfies libstore's mutation Hook: evicted entries leave
// the index.
func (x *Index) EntryRemoved(key string) { x.Remove(key) }

// SetParent installs a previous epoch's index as the cross-epoch seeding
// fallback (nil clears it). The parent chain must be acyclic; registries
// keep it at depth one by clearing a retired epoch's link.
func (x *Index) SetParent(p *Index) { x.parent.Store(p) }

// Parent returns the current cross-epoch fallback index, nil when none.
func (x *Index) Parent() *Index { return x.parent.Load() }

// Unitary returns the cached achieved unitary for an indexed key. This is
// how a calibration roll recovers each covered entry's training target
// without re-propagating its pulse: the index already paid that
// propagation (or inherited the target) at insert.
func (x *Index) Unitary(key string) (*cmat.Matrix, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	sz, ok := x.sizeOf[key]
	if !ok {
		return nil, false
	}
	ent := x.bySize[sz][key]
	if ent == nil {
		return nil, false
	}
	return ent.unitary, true
}

// scanBest returns the closest entry of the given size across this index
// and its parent chain, without admission or counters.
func (x *Index) scanBest(u *cmat.Matrix, numQubits int) (*indexed, float64) {
	var best *indexed
	bestDist := 0.0
	x.mu.RLock()
	for _, cand := range x.bySize[numQubits] {
		d, err := similarity.Distance(x.fn, u, cand.unitary)
		if err != nil {
			continue
		}
		if best == nil || d < bestDist || (d == bestDist && cand.key < best.key) {
			best, bestDist = cand, d
		}
	}
	x.mu.RUnlock()
	if p := x.parent.Load(); p != nil {
		// A parent (previous-epoch) entry wins only on strictly smaller
		// distance: at a tie the local entry was trained under the
		// current physics and is the better seed.
		if pb, pd := p.scanBest(u, numQubits); pb != nil && (best == nil || pd < bestDist) {
			best, bestDist = pb, pd
		}
	}
	return best, bestDist
}

// Nearest returns the most similar covered entry of the given size whose
// distance to u is within similarity.WarmThreshold(fn, dim) — the
// function- and dimension-correct admission scale. The scan computes only
// similarity distances over cached unitaries; it never propagates a
// pulse. Ties break on the lexically smallest key so results are
// deterministic. When a parent index is linked (a retiring calibration
// epoch), its entries compete too, so fresh-epoch misses seed from
// old-epoch pulses until the roll completes.
func (x *Index) Nearest(u *cmat.Matrix, numQubits int) (Seed, bool) {
	x.lookups.Add(1)
	best, bestDist := x.scanBest(u, numQubits)
	if best == nil || bestDist > similarity.WarmThreshold(x.fn, u.Rows) {
		if obs := x.observer.Load(); obs != nil && best != nil {
			(*obs)(bestDist, false)
		}
		return Seed{}, false
	}
	x.seeded.Add(1)
	if obs := x.observer.Load(); obs != nil {
		(*obs)(bestDist, true)
	}
	return Seed{Key: best.key, Pulse: best.pulse, LatencyNs: best.latencyNs, Distance: bestDist}, true
}

// SetObserver installs a callback seeing every Nearest outcome that found
// a candidate: its similarity distance and whether the admission
// threshold accepted it. Nil clears it. The callback must be fast and
// allocation-free (it runs on the request path).
func (x *Index) SetObserver(fn func(distance float64, admitted bool)) {
	if fn == nil {
		x.observer.Store(nil)
		return
	}
	x.observer.Store(&fn)
}

// Len returns the indexed entry count.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.sizeOf)
}

// Stats returns a counter snapshot.
func (x *Index) Stats() Stats {
	return Stats{
		Entries:      x.Len(),
		Lookups:      x.lookups.Load(),
		Seeded:       x.seeded.Load(),
		Propagations: x.propagations.Load(),
	}
}
