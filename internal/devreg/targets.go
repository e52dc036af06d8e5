package devreg

// The target cache is the memory the speculative-training driver works
// from: to re-train a predicted miss the prefetcher needs the key's
// training target (its canonical group unitary), but the seed index drops
// a key's cached unitary when the store evicts it — exactly the moment
// prefetch becomes interesting. TargetCache retains those targets past
// eviction, per device and across epochs (a group's unitary is gate
// semantics, independent of calibration — the same reuse RecompItem makes
// across an epoch roll).
//
// Deliberately cached: key, size and unitary. Deliberately NOT cached:
// the pulse or its latency.
// Resurrecting evicted pulses would turn the cache into a second library
// behind the capacity bound's back; a prefetched key re-trains like any
// miss, warm-seeded from the live seed index at best.

import (
	"container/list"
	"sync"

	"accqoc/internal/cmat"
	"accqoc/internal/precompile"
	"accqoc/internal/seedindex"
)

// Target is one retained training target.
type Target struct {
	Key       string
	NumQubits int
	Unitary   *cmat.Matrix
}

// TargetCache is a bounded LRU of training targets. All methods are safe
// for concurrent use.
type TargetCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element // value: *Target
	lru   *list.List               // front = most recently put/got
}

// NewTargetCache returns an empty cache holding at most cap targets.
func NewTargetCache(cap int) *TargetCache {
	return &TargetCache{cap: cap, items: map[string]*list.Element{}, lru: list.New()}
}

// Put inserts or refreshes a target under its key.
func (t *TargetCache) Put(tg *Target) {
	if tg == nil || tg.Key == "" || tg.Unitary == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[tg.Key]; ok {
		el.Value = tg
		t.lru.MoveToFront(el)
		return
	}
	t.items[tg.Key] = t.lru.PushFront(tg)
	for t.lru.Len() > t.cap {
		oldest := t.lru.Back()
		t.lru.Remove(oldest)
		delete(t.items, oldest.Value.(*Target).Key)
	}
}

// Get returns the target for a key, refreshing its recency.
func (t *TargetCache) Get(key string) (*Target, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[key]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(el)
	return el.Value.(*Target), true
}

// Len returns the retained target count.
func (t *TargetCache) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// targetRecorder is the store hook feeding the cache. It must sit in the
// tee AFTER the seed index: EntryAdded callbacks run in tee order under
// the same store lock, so by the time the recorder asks, the index has
// already cached the entry's unitary. Removals are ignored on purpose —
// outliving eviction is the cache's whole job.
type targetRecorder struct {
	seeds   *seedindex.Index
	targets *TargetCache
}

func (t *targetRecorder) EntryAdded(e *precompile.Entry) {
	if u, ok := t.seeds.Unitary(e.Key); ok {
		t.targets.Put(&Target{Key: e.Key, NumQubits: e.NumQubits, Unitary: u})
	}
}

func (t *targetRecorder) EntryRemoved(key string) {}
