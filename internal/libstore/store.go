// Package libstore provides the shared, long-lived pulse-library artifact
// of the AccQOC workflow (§IV/§V): a concurrent, content-addressed store of
// trained pulses. Where precompile.Library is a plain map for
// single-threaded batch builds, Store is the serving-side wrapper: one
// mutex guards its map, its LRU list and its in-flight trainings,
// capacity is bounded by LRU eviction over the whole store,
// hit/miss/eviction/training counters feed the server's
// /v1/library/stats endpoint, and GetOrTrain deduplicates concurrent
// requests for the same uncompiled gate group so exactly one GRAPE
// training runs per key (singleflight).
package libstore

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"accqoc/internal/precompile"
)

// Options configures a Store. The zero value is an unbounded store.
type Options struct {
	// Capacity bounds the entry count: an insert past it evicts one
	// resident entry, the least recently used unless an eviction policy
	// picks another. 0 (or negative) means unlimited.
	Capacity int
}

// Hook observes mutations of the store's entry set — the coherence
// channel for derived structures such as the warm-start seed index.
// Callbacks run synchronously under the store's lock, so mutations are
// delivered in the order they happen, but implementations must not call
// back into the Store (deadlock) and should keep heavy work amortized (the
// seed index pays one pulse propagation per add, well under the training
// that produced the entry).
type Hook interface {
	// EntryAdded fires when a key is inserted or its entry replaced.
	EntryAdded(e *precompile.Entry)
	// EntryRemoved fires when a key is evicted.
	EntryRemoved(key string)
}

// AccessHook is an optional Hook extension observing lookups: EntryHit
// fires on every Get/GetOrTrain that found the key, EntryMissed on every
// one that did not (whether the caller then trains, joins an in-flight
// training, or gives up). Both run under the store's lock with the same
// constraints as Hook. Whether a registered Hook implements AccessHook is
// resolved once at SetHook time, so stores without one pay a single nil
// check per lookup.
type AccessHook interface {
	EntryHit(key string)
	EntryMissed(key string)
}

// teeHook fans mutations out to several hooks in order; access events go
// only to the members that observe them.
type teeHook struct {
	hooks  []Hook
	access []AccessHook
}

func (t *teeHook) EntryAdded(e *precompile.Entry) {
	for _, h := range t.hooks {
		h.EntryAdded(e)
	}
}

func (t *teeHook) EntryRemoved(key string) {
	for _, h := range t.hooks {
		h.EntryRemoved(key)
	}
}

func (t *teeHook) EntryHit(key string) {
	for _, a := range t.access {
		a.EntryHit(key)
	}
}

func (t *teeHook) EntryMissed(key string) {
	for _, a := range t.access {
		a.EntryMissed(key)
	}
}

// TeeHooks combines several hooks into one, for stores with more than one
// derived structure to keep coherent (seed index + usage ledger). Nil
// members are skipped; members implementing AccessHook also receive
// hit/miss events.
func TeeHooks(hooks ...Hook) Hook {
	t := &teeHook{}
	for _, h := range hooks {
		if h == nil {
			continue
		}
		t.hooks = append(t.hooks, h)
		if a, ok := h.(AccessHook); ok {
			t.access = append(t.access, a)
		}
	}
	switch len(t.hooks) {
	case 0:
		return nil
	case 1:
		return t.hooks[0]
	}
	return t
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Inserts   int64 `json:"inserts"`
	// Trainings counts GetOrTrain compute invocations that actually ran.
	Trainings int64 `json:"trainings"`
	// DedupSuppressed counts GetOrTrain callers that piggybacked on an
	// in-flight training instead of starting their own.
	DedupSuppressed int64 `json:"dedup_suppressed"`
	// TrainFailures counts compute invocations that returned an error
	// (the group stays uncovered; callers price it gate-based).
	TrainFailures int64 `json:"train_failures"`
}

// Store is a concurrent pulse-library store. Entries are treated as
// immutable once stored: callers must not mutate a returned *Entry.
type Store struct {
	capacity int // 0 = unlimited

	mu     sync.Mutex
	items  map[string]*list.Element // value: *node
	lru    *list.List               // front = most recently used
	flight map[string]*flightCall
	hook   Hook
	access AccessHook // hook's AccessHook view, nil when not implemented
	policy EvictionPolicy

	hits, misses, evictions, inserts atomic.Int64
	trainings, dedup, trainFailures  atomic.Int64
}

type node struct {
	key   string
	entry *precompile.Entry
	// hits counts lookups that found this entry (Get and GetOrTrain),
	// guarded by the store lock. The calibration-epoch roll orders its
	// recompilation most-requested-first from these counts.
	hits int64
}

type flightCall struct {
	done  chan struct{}
	entry *precompile.Entry
	err   error
}

// New returns an empty store.
func New(opts Options) *Store {
	return &Store{
		capacity: max(opts.Capacity, 0),
		items:    map[string]*list.Element{},
		lru:      list.New(),
		flight:   map[string]*flightCall{},
	}
}

// SetHook registers the mutation observer (nil clears it). Entries already
// resident are not replayed to it: register the hook before the store is
// filled or shared, as the device registry does.
func (s *Store) SetHook(h Hook) {
	a, _ := h.(AccessHook)
	s.mu.Lock()
	s.hook, s.access = h, a
	s.mu.Unlock()
}

// lookupLocked finds key under s.mu, counting the hit or miss on the
// store, the entry's node and the access hook, and refreshing a hit's LRU
// recency.
func (s *Store) lookupLocked(key string) (*precompile.Entry, bool) {
	el, ok := s.items[key]
	if !ok {
		s.misses.Add(1)
		if s.access != nil {
			s.access.EntryMissed(key)
		}
		return nil, false
	}
	s.hits.Add(1)
	s.lru.MoveToFront(el)
	// Read under the lock: Put replaces node.entry in place.
	n := el.Value.(*node)
	n.hits++
	if s.access != nil {
		s.access.EntryHit(key)
	}
	return n.entry, true
}

// Get returns the entry for a canonical group key, counting a hit or miss
// and refreshing LRU recency.
func (s *Store) Get(key string) (*precompile.Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(key)
}

// Contains reports coverage without touching hit/miss counters or LRU
// order (used for stats-neutral inspection).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	return ok
}

// Put inserts or replaces an entry under its own key.
func (s *Store) Put(e *precompile.Entry) {
	if e == nil {
		return
	}
	s.mu.Lock()
	s.putLocked(e)
	s.mu.Unlock()
}

// putLocked inserts under s.mu and evicts down to capacity.
func (s *Store) putLocked(e *precompile.Entry) {
	if el, ok := s.items[e.Key]; ok {
		el.Value.(*node).entry = e
		s.lru.MoveToFront(el)
	} else {
		// A fresh insert adopts the entry's carried hit count, so a
		// snapshot-loaded library resumes its KeysByHits ordering instead
		// of starting every entry at zero.
		s.items[e.Key] = s.lru.PushFront(&node{key: e.Key, entry: e, hits: e.Hits})
		s.inserts.Add(1)
	}
	if s.hook != nil {
		s.hook.EntryAdded(e)
	}
	for s.capacity > 0 && s.lru.Len() > s.capacity {
		victim := s.victimLocked()
		s.lru.Remove(victim)
		key := victim.Value.(*node).key
		delete(s.items, key)
		s.evictions.Add(1)
		if s.hook != nil {
			s.hook.EntryRemoved(key)
		}
	}
}

// victimLocked picks the entry to evict from an over-capacity store: the
// LRU tail when no eviction policy is installed, otherwise whatever the
// policy selects from every resident key. The just-inserted entry is a
// candidate too — a policy may decide the newcomer is the least worth
// keeping.
func (s *Store) victimLocked() *list.Element {
	oldest := s.lru.Back()
	if s.policy == nil {
		return oldest
	}
	keys := make([]string, 0, s.lru.Len())
	for el := oldest; el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*node).key)
	}
	idx := s.policy.Victim(keys)
	if idx <= 0 || idx >= len(keys) {
		return oldest
	}
	return s.items[keys[idx]]
}

// AddLibrary merges every entry of a plain library into the store.
func (s *Store) AddLibrary(lib *precompile.Library) {
	if lib == nil {
		return
	}
	for _, e := range lib.Entries {
		s.Put(e)
	}
}

// Outcome reports how GetOrTrain resolved a key.
type Outcome int

const (
	// OutcomeHit: the entry was already cached — no training involved.
	OutcomeHit Outcome = iota
	// OutcomeTrained: this call executed the train function.
	OutcomeTrained
	// OutcomeJoined: another caller's in-flight training produced the
	// result; this call waited for it (singleflight suppression).
	OutcomeJoined
)

// ErrTrainPanic tags the error GetOrTrain returns when train panicked.
var ErrTrainPanic = errors.New("libstore: training panicked")

// GetOrTrain returns the cached entry for key, or runs train to produce
// it. Concurrent callers for the same key are deduplicated: exactly one
// executes train (OutcomeTrained), the rest block until it finishes and
// share the result and its error (OutcomeJoined). A successful result is
// inserted before any waiter is released, so a warm entry is immediately
// visible to Get. A panic in train is recovered into an ErrTrainPanic
// failure like any other train error, so the key is released for a retry
// instead of wedging every later caller.
func (s *Store) GetOrTrain(key string, train func() (*precompile.Entry, error)) (*precompile.Entry, Outcome, error) {
	s.mu.Lock()
	if entry, ok := s.lookupLocked(key); ok {
		s.mu.Unlock()
		return entry, OutcomeHit, nil
	}
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		s.dedup.Add(1)
		<-c.done
		return c.entry, OutcomeJoined, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	s.trainings.Add(1)
	entry, err := runTrain(key, train)
	if err == nil && entry == nil {
		err = fmt.Errorf("libstore: train returned no entry for %q", key)
	}
	if err == nil && entry.Key != key {
		err = fmt.Errorf("libstore: train returned entry %q for key %q", entry.Key, key)
	}
	if err != nil {
		s.trainFailures.Add(1)
		entry = nil
	}

	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		s.putLocked(entry)
	}
	s.mu.Unlock()
	c.entry, c.err = entry, err
	close(c.done)
	return entry, OutcomeTrained, err
}

// runTrain calls train, recovering a panic into an ErrTrainPanic error.
func runTrain(key string, train func() (*precompile.Entry, error)) (entry *precompile.Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			entry, err = nil, fmt.Errorf("%w for %q: %v", ErrTrainPanic, key, r)
		}
	}()
	return train()
}

// Len returns the current entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:         s.Len(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Evictions:       s.evictions.Load(),
		Inserts:         s.inserts.Load(),
		Trainings:       s.trainings.Load(),
		DedupSuppressed: s.dedup.Load(),
		TrainFailures:   s.trainFailures.Load(),
	}
}

// HitCounts returns a snapshot of the per-entry hit counters, keyed by
// entry key. Entries never hit are present with count 0.
func (s *Store) HitCounts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.items))
	for k, el := range s.items {
		out[k] = el.Value.(*node).hits
	}
	return out
}

// KeysByHits returns every stored key ordered most-requested-first (hit
// count descending, key ascending on ties, so the order is deterministic).
// The calibration-epoch recompilation pipeline walks this order: the
// entries serving the most traffic are re-trained for the new epoch first.
func (s *Store) KeysByHits() []string {
	counts := s.HitCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Snapshot copies the store's entries into a plain precompile.Library
// (the persistence and interchange format).
func (s *Store) Snapshot() *precompile.Library {
	lib := precompile.NewLibrary()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, el := range s.items {
		lib.Entries[k] = el.Value.(*node).entry
	}
	return lib
}

// SnapshotWithHits is Snapshot with each entry's Hits field stamped from
// the live per-entry hit counter — the persistence path, so a reloaded
// library resumes its most-requested-first ordering. Entries are shallow
// copies (the live store's entries stay un-mutated; the shared Pulse is
// immutable by convention).
func (s *Store) SnapshotWithHits() *precompile.Library {
	lib := precompile.NewLibrary()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, el := range s.items {
		n := el.Value.(*node)
		e := *n.entry
		e.Hits = n.hits
		lib.Entries[k] = &e
	}
	return lib
}
