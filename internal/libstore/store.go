// Package libstore provides the shared, long-lived pulse-library artifact
// of the AccQOC workflow (§IV/§V): a sharded, mutex-striped,
// content-addressed store of trained pulses. Where precompile.Library is a
// plain map for single-threaded batch builds, Store is the serving-side
// wrapper: concurrent lookups stripe across shards, capacity is bounded by
// per-shard LRU eviction, hit/miss/eviction/training counters feed the
// server's /v1/library/stats endpoint, and GetOrTrain deduplicates
// concurrent requests for the same uncompiled gate group so exactly one
// GRAPE training runs per key (singleflight).
package libstore

import (
	"container/list"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"accqoc/internal/precompile"
)

// Options configures a Store. The zero value selects 16 shards and
// unlimited capacity.
type Options struct {
	// Shards is the stripe count, rounded up to a power of two. More
	// shards mean less lock contention at a small fixed memory cost.
	Shards int
	// Capacity bounds the total entry count exactly: per-shard LRU caps
	// are Capacity/Shards with the remainder spread one-per-shard, so the
	// caps sum to Capacity. When Capacity is smaller than the shard
	// count, the shard count is reduced (keeping a power of two) so every
	// shard can hold at least one entry. A shard whose keys hash hot can
	// still evict while the store as a whole is under Capacity — inherent
	// to sharding — but the store never exceeds Capacity. 0 means
	// unlimited.
	Capacity int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.Capacity < 0 {
		o.Capacity = 0
	}
	if o.Capacity > 0 {
		// Every shard must be able to hold at least one entry, or keys
		// hashing to a zero-cap shard could never stay resident. Halving
		// keeps the count a power of two for mask selection.
		for o.Shards > o.Capacity {
			o.Shards >>= 1
		}
	}
	return o
}

// Hook observes mutations of the store's entry set — the coherence
// channel for derived structures such as the warm-start seed index.
// Callbacks run synchronously under the owning shard's lock: mutations
// for any one key are therefore ordered, but implementations must not
// call back into the Store (deadlock) and should keep heavy work
// amortized (the seed index pays one pulse propagation per add, well
// under the training that produced the entry).
type Hook interface {
	// EntryAdded fires when a key is inserted or its entry replaced.
	EntryAdded(e *precompile.Entry)
	// EntryRemoved fires when a key is evicted.
	EntryRemoved(key string)
}

// AccessHook is an optional Hook extension observing lookups: EntryHit
// fires on every Get/GetOrTrain that found the key, EntryMissed on every
// one that did not (whether the caller then trains, joins an in-flight
// training, or gives up). Both run under the shard lock with the same
// constraints as Hook. Whether a registered Hook implements AccessHook is
// resolved once at SetHook time, so stores without one pay a single nil
// check per lookup.
type AccessHook interface {
	EntryHit(key string)
	EntryMissed(key string)
}

type hookCell struct {
	h Hook
	a AccessHook // h's AccessHook view, nil when not implemented
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

// Store is a sharded concurrent pulse-library store. Entries are treated
// as immutable once stored: callers must not mutate a returned *Entry.
type Store struct {
	opts   Options
	seed   maphash.Seed
	shards []*shard
	hook   atomic.Pointer[hookCell]
	policy atomic.Pointer[policyCell]

	hits, misses, evictions, inserts atomic.Int64
	trainings, dedup, trainFailures  atomic.Int64
}

type shard struct {
	mu     sync.Mutex
	cap    int                      // LRU capacity, 0 = unlimited
	items  map[string]*list.Element // value: *node
	lru    *list.List               // front = most recently used
	flight map[string]*flightCall
}

type node struct {
	key   string
	entry *precompile.Entry
	// hits counts lookups that found this entry (Get and GetOrTrain),
	// guarded by the shard lock. The calibration-epoch roll orders its
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
	opts = opts.withDefaults()
	s := &Store{
		opts:   opts,
		seed:   maphash.MakeSeed(),
		shards: make([]*shard, opts.Shards),
	}
	// Per-shard caps sum exactly to Capacity: base share everywhere, the
	// remainder spread one-per-shard from the front.
	base, rem := 0, 0
	if opts.Capacity > 0 {
		base, rem = opts.Capacity/opts.Shards, opts.Capacity%opts.Shards
	}
	for i := range s.shards {
		c := 0
		if opts.Capacity > 0 {
			c = base
			if i < rem {
				c++
			}
		}
		s.shards[i] = &shard{
			cap:    c,
			items:  map[string]*list.Element{},
			lru:    list.New(),
			flight: map[string]*flightCall{},
		}
	}
	return s
}

// SetHook registers the mutation observer (nil clears it). Mutations
// racing with the registration may be missed; callers that need a
// complete view (e.g. the seed index) should backfill from Snapshot()
// after registering.
func (s *Store) SetHook(h Hook) {
	c := &hookCell{h: h}
	if a, ok := h.(AccessHook); ok {
		c.a = a
	}
	s.hook.Store(c)
}

func (s *Store) hookAdded(e *precompile.Entry) {
	if c := s.hook.Load(); c != nil && c.h != nil {
		c.h.EntryAdded(e)
	}
}

func (s *Store) hookRemoved(key string) {
	if c := s.hook.Load(); c != nil && c.h != nil {
		c.h.EntryRemoved(key)
	}
}

func (s *Store) hookHit(key string) {
	if c := s.hook.Load(); c != nil && c.a != nil {
		c.a.EntryHit(key)
	}
}

func (s *Store) hookMissed(key string) {
	if c := s.hook.Load(); c != nil && c.a != nil {
		c.a.EntryMissed(key)
	}
}

func (s *Store) shardFor(key string) *shard {
	h := maphash.String(s.seed, key)
	return s.shards[h&uint64(len(s.shards)-1)]
}

// Get returns the entry for a canonical group key, counting a hit or miss
// and refreshing LRU recency.
func (s *Store) Get(key string) (*precompile.Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		s.hookMissed(key)
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	// Read under the lock: Put replaces node.entry in place.
	n := el.Value.(*node)
	n.hits++
	entry := n.entry
	s.hookHit(key)
	sh.mu.Unlock()
	s.hits.Add(1)
	return entry, true
}

// Contains reports coverage without touching hit/miss counters or LRU
// order (used for stats-neutral inspection).
func (s *Store) Contains(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.items[key]
	sh.mu.Unlock()
	return ok
}

// Put inserts or replaces an entry under its own key.
func (s *Store) Put(e *precompile.Entry) {
	if e == nil {
		return
	}
	sh := s.shardFor(e.Key)
	sh.mu.Lock()
	s.putLocked(sh, e)
	sh.mu.Unlock()
}

// putLocked inserts under sh.mu and applies LRU eviction.
func (s *Store) putLocked(sh *shard, e *precompile.Entry) {
	if el, ok := sh.items[e.Key]; ok {
		el.Value.(*node).entry = e
		sh.lru.MoveToFront(el)
		s.hookAdded(e)
		return
	}
	// A fresh insert adopts the entry's carried hit count, so a
	// snapshot-loaded library resumes its KeysByHits ordering instead of
	// starting every entry at zero.
	sh.items[e.Key] = sh.lru.PushFront(&node{key: e.Key, entry: e, hits: e.Hits})
	s.inserts.Add(1)
	s.hookAdded(e)
	if sh.cap > 0 {
		for sh.lru.Len() > sh.cap {
			victim := s.victimLocked(sh)
			if victim == nil {
				break
			}
			sh.lru.Remove(victim)
			key := victim.Value.(*node).key
			delete(sh.items, key)
			s.evictions.Add(1)
			s.hookRemoved(key)
		}
	}
}

// victimLocked picks the entry to evict from an over-cap shard: the LRU
// tail when no eviction policy is installed (the historical behavior,
// byte-for-byte), otherwise whatever the policy selects from the shard's
// resident keys. The just-inserted entry is a candidate too — a policy may
// decide the newcomer is the least worth keeping.
func (s *Store) victimLocked(sh *shard) *list.Element {
	oldest := sh.lru.Back()
	if oldest == nil {
		return nil
	}
	c := s.policy.Load()
	if c == nil || c.p == nil {
		return oldest
	}
	keys := make([]string, 0, sh.lru.Len())
	for el := oldest; el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*node).key)
	}
	idx := c.p.Victim(keys)
	if idx <= 0 || idx >= len(keys) {
		return oldest
	}
	return sh.items[keys[idx]]
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
	sh := s.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.lru.MoveToFront(el)
		n := el.Value.(*node)
		n.hits++
		entry := n.entry
		s.hookHit(key)
		sh.mu.Unlock()
		s.hits.Add(1)
		return entry, OutcomeHit, nil
	}
	s.hookMissed(key)
	s.misses.Add(1)
	if c, ok := sh.flight[key]; ok {
		sh.mu.Unlock()
		s.dedup.Add(1)
		<-c.done
		return c.entry, OutcomeJoined, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	sh.flight[key] = c
	sh.mu.Unlock()

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

	sh.mu.Lock()
	delete(sh.flight, key)
	if err == nil {
		s.putLocked(sh, entry)
	}
	sh.mu.Unlock()
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
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
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
	out := map[string]int64{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, el := range sh.items {
			out[k] = el.Value.(*node).hits
		}
		sh.mu.Unlock()
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, el := range sh.items {
			lib.Entries[k] = el.Value.(*node).entry
		}
		sh.mu.Unlock()
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, el := range sh.items {
			n := el.Value.(*node)
			e := *n.entry
			e.Hits = n.hits
			lib.Entries[k] = &e
		}
		sh.mu.Unlock()
	}
	return lib
}
