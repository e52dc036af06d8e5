// Package usage is the cost-and-usage accounting layer of the serving
// stack. The paper's core claim is that similarity structure predicts
// training cost; the ROADMAP's cost-aware cache policy needs that cost
// *measured* per entry before any policy can act on it. This package is
// the measurement substrate and nothing more — deliberately policy-free:
// a Ledger observes the store through libstore.Hook/AccessHook and the
// request stream through RecordRequest, and changes no eviction or
// training decision.
//
// Per entry it accounts observed training iterations and wall time,
// seeded-vs-cold provenance, cumulative hits, and eviction counts; per
// request it maintains a bounded history ring from which group
// co-occurrence (keys arriving together in one request/batch window) and
// per-key inter-arrival statistics are mined; and it charges an
// eviction-regret counter — the ledger cost thrown away — the first time
// an evicted entry misses again.
//
// A Ledger is owned per device (not per epoch) by the device registry, so
// cost history survives recalibrations: keys are content addresses shared
// across epochs, and each new epoch's trainings accumulate onto the same
// rows. All methods are safe for concurrent use; hook callbacks run under
// the store's lock and must stay cheap (one mutex, map ops only).
package usage

import (
	"sort"
	"sync"
	"time"

	"accqoc/internal/precompile"
)

// Options tunes a Ledger. The zero value selects the defaults.
type Options struct {
	// HistorySize bounds the request-history ring. Default 256.
	HistorySize int
	// PairCap bounds the co-occurrence pair table. At capacity an unseen
	// pair displaces the lowest-count pair (space-saving admission);
	// DroppedPairs counts those displacements. Default 4096.
	PairCap int
	// now overrides the clock (tests).
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.HistorySize <= 0 {
		o.HistorySize = 256
	}
	if o.PairCap <= 0 {
		o.PairCap = 4096
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// row is one key's accumulated cost history.
type row struct {
	key       string
	numQubits int
	// live tracks store residency (set by EntryAdded, cleared by
	// EntryRemoved).
	live bool
	// trainings counts distinct entries observed for the key (initial
	// training, epoch re-trainings, post-eviction re-trainings alike);
	// seeded/cold partition them by warm-start provenance.
	trainings int64
	seeded    int64
	cold      int64
	// iterations and wallNs sum the observed training cost.
	iterations int64
	wallNs     float64
	// hits counts lookups that found the key while resident.
	hits int64
	// missesAfterEviction counts lookups that arrived while evicted.
	missesAfterEviction int64
	evictions           int64
	// regretCharged latches after the first post-eviction miss charged
	// this row's cost to the regret totals; re-arms on the next add.
	regretCharged bool
	// lastEntry dedups hook re-deliveries of the same entry (the
	// hook-then-backfill pattern can add one entry twice).
	lastEntry *precompile.Entry
	// arrivals/lastArrivalNs/sumInterNs are the inter-arrival statistics
	// fed by RecordRequest. interSamples counts the gaps actually summed
	// into sumInterNs: same-timestamp arrivals contribute no gap, so the
	// mean divides by interSamples, not arrivals-1.
	arrivals      int64
	lastArrivalNs int64
	sumInterNs    float64
	interSamples  int64
	// id names the key in the pair table, from 1; 0 until RecordRequest
	// first files the key. rank is the key's position in the lexical
	// order of every filed key.
	id   uint32
	rank uint32
}

// request is one history-ring element.
type request struct {
	unixNs int64
	keys   []string
}

// Ledger is one device's cost accounting. The zero value is not usable;
// construct with NewLedger.
type Ledger struct {
	opts Options

	mu   sync.Mutex
	rows map[string]*row

	ring     []request
	ringNext int
	requests int64

	// filed holds every row RecordRequest has filed, by id (filed[0] is
	// unused); ranked holds the same rows in lexical key order.
	filed  []*row
	ranked []*row
	// pairs is the co-occurrence table over key ids.
	pairs        pairTable
	droppedPairs int64
	// reqRows and fresh are RecordRequest's scratch: the request's rows,
	// and those it files for the first time.
	reqRows, fresh []*row

	regretEvents     int64
	regretIterations int64
	regretWallNs     float64
	evictions        int64
}

// NewLedger returns an empty ledger.
func NewLedger(opts Options) *Ledger {
	opts = opts.withDefaults()
	return &Ledger{
		opts:  opts,
		rows:  map[string]*row{},
		ring:  make([]request, 0, opts.HistorySize),
		filed: []*row{nil},
		pairs: pairTable{index: map[uint64]int32{}},
	}
}

func (l *Ledger) rowFor(key string) *row {
	r, ok := l.rows[key]
	if !ok {
		r = &row{key: key}
		l.rows[key] = r
	}
	return r
}

// EntryAdded implements libstore.Hook: accumulate the entry's training
// cost onto its row. Re-delivery of the same *Entry (a re-Put of a
// resident entry) is idempotent; a genuinely new entry for a known key
// (epoch re-training, post-eviction re-training) accumulates.
func (l *Ledger) EntryAdded(e *precompile.Entry) {
	if e == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rowFor(e.Key)
	if r.lastEntry == e {
		r.live = true
		return
	}
	if r.trainings == 0 {
		// First sighting: adopt the snapshot-carried hit count, exactly
		// once (replacements and reloads must not double it).
		r.hits += e.Hits
	}
	r.lastEntry = e
	r.live = true
	r.regretCharged = false
	r.numQubits = e.NumQubits
	r.trainings++
	if e.Seeded {
		r.seeded++
	} else {
		r.cold++
	}
	r.iterations += int64(e.Iterations)
	r.wallNs += e.TrainWallNs
}

// EntryRemoved implements libstore.Hook: mark the row evicted. The cost is
// not charged to regret yet — regret means the eviction turned out to be
// wrong, i.e. the key was requested again.
func (l *Ledger) EntryRemoved(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rows[key]
	if !ok {
		return
	}
	r.live = false
	r.evictions++
	l.evictions++
}

// EntryHit implements libstore.AccessHook. The row is created if absent,
// as EntryAdded and RecordRequest create theirs, so a hit counts whichever
// event names its key first.
func (l *Ledger) EntryHit(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rowFor(key).hits++
}

// EntryMissed implements libstore.AccessHook: the first miss on an
// evicted, costed row charges its accumulated cost to the regret totals
// (once per eviction — the latch re-arms when the key is re-added).
func (l *Ledger) EntryMissed(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rows[key]
	if !ok || r.live {
		return
	}
	r.missesAfterEviction++
	if !r.regretCharged && r.trainings > 0 {
		r.regretCharged = true
		l.regretEvents++
		l.regretIterations += r.iterations
		l.regretWallNs += r.wallNs
	}
}

// RecordRequest files one resolved request (or async-batch) window: its
// unique keys enter the history ring, every unordered key pair's
// co-occurrence count increments, and each key's inter-arrival statistics
// advance. Callers pass the deduplicated key set of one resolveGroups
// pass; the slice is copied.
func (l *Ledger) RecordRequest(keys []string) {
	if len(keys) == 0 {
		return
	}
	now := l.opts.now().UnixNano()
	kc := append([]string(nil), keys...)
	sort.Strings(kc)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	if len(l.ring) < l.opts.HistorySize {
		l.ring = append(l.ring, request{unixNs: now, keys: kc})
	} else {
		l.ring[l.ringNext] = request{unixNs: now, keys: kc}
		l.ringNext = (l.ringNext + 1) % l.opts.HistorySize
	}
	rows, fresh := l.reqRows[:0], l.fresh[:0]
	for _, k := range kc {
		r := l.rowFor(k)
		r.arrivals++
		if r.lastArrivalNs > 0 && now > r.lastArrivalNs {
			r.sumInterNs += float64(now - r.lastArrivalNs)
			r.interSamples++
		}
		r.lastArrivalNs = now
		if r.id == 0 {
			r.id = uint32(len(l.filed))
			l.filed = append(l.filed, r)
			fresh = append(fresh, r)
		}
		rows = append(rows, r)
	}
	l.reqRows, l.fresh = rows, fresh
	if len(fresh) > 0 {
		l.rank(fresh)
	}
	for i, a := range rows {
		for _, b := range rows[i+1:] {
			if a == b {
				continue
			}
			if l.pairs.file(uint64(a.id)<<32|uint64(b.id), uint64(a.rank)<<32|uint64(b.rank), l.opts.PairCap) {
				l.droppedPairs++
			}
		}
	}
}

// rank merges rows filed for the first time, in lexical key order, into
// l.ranked in one pass and renumbers the ranks from the first insertion
// on. The merge never reorders rows ranked before, so the pair heap stays
// a valid heap; only the ranks it carries inline are refreshed.
func (l *Ledger) rank(fresh []*row) {
	old := len(l.ranked)
	l.ranked = append(l.ranked, fresh...)
	i, j := old-1, len(fresh)-1
	for k := len(l.ranked) - 1; j >= 0; k-- {
		if i >= 0 && l.ranked[i].key > fresh[j].key {
			l.ranked[k] = l.ranked[i]
			i--
		} else {
			l.ranked[k] = fresh[j]
			j--
		}
	}
	for p := i + 1; p < len(l.ranked); p++ {
		l.ranked[p].rank = uint32(p)
	}
	if i+1 < old {
		for h, it := range l.pairs.heap {
			a, b := l.pairRows(it.slot)
			l.pairs.heap[h].ranks = uint64(a.rank)<<32 | uint64(b.rank)
		}
	}
}

// pairRows returns the rows of a pair-table slot's two keys, the
// lexically smaller first.
func (l *Ledger) pairRows(slot int32) (a, b *row) {
	ids := l.pairs.ids[slot]
	return l.filed[ids>>32], l.filed[uint32(ids)]
}

// pairTable is the space-saving co-occurrence table. A pair is its two
// key ids packed a<<32|b, a's key the lexically smaller; index maps it to
// its slot, ids holds each slot's pair and at its index in heap, a binary
// min-heap of every slot in victim order. A heap element carries its
// slot's count and key ranks, so a sift compares integers only, and the
// displacement victim is always heap[0].
type pairTable struct {
	index map[uint64]int32
	ids   []uint64
	at    []int32
	heap  []pairItem
}

// pairItem is one heap element: a pair's count, its keys' ranks packed
// rank(a)<<32|rank(b), and its slot.
type pairItem struct {
	count int64
	ranks uint64
	slot  int32
}

// less is the space-saving victim order: lowest count first, ties on the
// lexically smallest pair (ranks order keys as their strings do), so
// displacement is deterministic.
func (x pairItem) less(y pairItem) bool {
	return x.count < y.count || x.count == y.count && x.ranks < y.ranks
}

// file counts one co-occurrence of the pair with the given ids and ranks.
// An unseen pair takes a new slot below capacity; at capacity it
// displaces the lowest-count pair (space-saving admission) and file
// reports true. The newcomer takes the victim's count plus one (the
// classic overestimate), so a genuinely hot new pair climbs instead of
// being instantly re-evicted, and reuses its slot.
func (t *pairTable) file(pair, ranks uint64, capacity int) (displaced bool) {
	if s, ok := t.index[pair]; ok {
		i := t.at[s]
		t.heap[i].count++
		t.down(int(i))
		return false
	}
	if len(t.heap) < capacity {
		s := int32(len(t.ids))
		t.index[pair] = s
		t.ids = append(t.ids, pair)
		t.at = append(t.at, int32(len(t.heap)))
		t.heap = append(t.heap, pairItem{count: 1, ranks: ranks, slot: s})
		t.up(len(t.heap) - 1)
		return false
	}
	v := &t.heap[0]
	delete(t.index, t.ids[v.slot])
	t.index[pair] = v.slot
	t.ids[v.slot] = pair
	v.count++
	v.ranks = ranks
	t.down(0)
	return true
}

func (t *pairTable) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.heap[i].less(t.heap[p]) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *pairTable) down(i int) {
	h := t.heap
	for {
		m := i
		if c := 2*i + 1; c < len(h) && h[c].less(h[m]) {
			m = c
		}
		if c := 2*i + 2; c < len(h) && h[c].less(h[m]) {
			m = c
		}
		if m == i {
			return
		}
		t.swap(i, m)
		i = m
	}
}

func (t *pairTable) swap(i, j int) {
	h := t.heap
	h[i], h[j] = h[j], h[i]
	t.at[h[i].slot], t.at[h[j].slot] = int32(i), int32(j)
}

// Totals are the ledger-wide accumulated sums.
type Totals struct {
	Trainings       int64   `json:"trainings"`
	Seeded          int64   `json:"seeded"`
	Cold            int64   `json:"cold"`
	Iterations      int64   `json:"iterations"`
	TrainWallMillis float64 `json:"train_wall_millis"`
	Hits            int64   `json:"hits"`
}

// Regret totals the ledger cost already thrown away by eviction: each
// event is one evicted entry that was requested again, charged with the
// iterations and wall time its trainings had accumulated.
type Regret struct {
	Events          int64   `json:"events"`
	Iterations      int64   `json:"iterations"`
	TrainWallMillis float64 `json:"train_wall_millis"`
	Evictions       int64   `json:"evictions"`
}

// EntryCost is one key's report row.
type EntryCost struct {
	Key       string `json:"key"`
	NumQubits int    `json:"num_qubits"`
	Live      bool   `json:"live"`
	Hits      int64  `json:"hits"`
	Trainings int64  `json:"trainings"`
	Seeded    int64  `json:"seeded"`
	Cold      int64  `json:"cold"`
	// Iterations and TrainWallMillis are the accumulated observed cost of
	// every training this key has paid for (across epochs and evictions).
	Iterations      int64   `json:"iterations"`
	TrainWallMillis float64 `json:"train_wall_millis"`
	Evictions       int64   `json:"evictions,omitempty"`
	MissesEvicted   int64   `json:"misses_after_eviction,omitempty"`
	// Score ranks the report: iterations × hits, the cost-aware policy's
	// raw signal (expensive and popular sorts first).
	Score float64 `json:"score"`
	// MeanInterarrivalMillis is the mean gap between request windows
	// naming this key; 0 until the key has arrived twice.
	MeanInterarrivalMillis float64 `json:"mean_interarrival_millis,omitempty"`
}

// PairCount is one co-occurrence pair's report row.
type PairCount struct {
	Keys  [2]string `json:"keys"`
	Count int64     `json:"count"`
}

// Report is a point-in-time accounting view (the GET /v1/library/usage
// body, wrapped with a device name by the server).
type Report struct {
	Requests    int64  `json:"requests"`
	TrackedKeys int    `json:"tracked_keys"`
	HistorySize int    `json:"history_size"`
	Totals      Totals `json:"totals"`
	// Top lists the highest-scoring entries, iterations×hits descending
	// (ties: iterations descending, then key).
	Top []EntryCost `json:"top"`
	// Pairs lists the most frequent co-occurring key pairs, count
	// descending (ties by key); DroppedPairs counts space-saving
	// displacements at the pair-map cap — nonzero means cold pairs have
	// been churned out and surviving counts are upper bounds.
	Pairs        []PairCount `json:"pairs"`
	DroppedPairs int64       `json:"dropped_pairs,omitempty"`
	Regret       Regret      `json:"regret"`
}

// Report builds the accounting view, keeping the topN highest-scoring
// entries and topN most frequent pairs (topN <= 0 keeps everything).
func (l *Ledger) Report(topN int) Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := Report{
		Requests:     l.requests,
		TrackedKeys:  len(l.rows),
		HistorySize:  len(l.ring),
		DroppedPairs: l.droppedPairs,
		Regret: Regret{
			Events:          l.regretEvents,
			Iterations:      l.regretIterations,
			TrainWallMillis: l.regretWallNs / 1e6,
			Evictions:       l.evictions,
		},
		Top:   []EntryCost{},
		Pairs: []PairCount{},
	}
	for _, r := range l.rows {
		rep.Totals.Trainings += r.trainings
		rep.Totals.Seeded += r.seeded
		rep.Totals.Cold += r.cold
		rep.Totals.Iterations += r.iterations
		rep.Totals.TrainWallMillis += r.wallNs / 1e6
		rep.Totals.Hits += r.hits
		ec := EntryCost{
			Key:             r.key,
			NumQubits:       r.numQubits,
			Live:            r.live,
			Hits:            r.hits,
			Trainings:       r.trainings,
			Seeded:          r.seeded,
			Cold:            r.cold,
			Iterations:      r.iterations,
			TrainWallMillis: r.wallNs / 1e6,
			Evictions:       r.evictions,
			MissesEvicted:   r.missesAfterEviction,
			Score:           float64(r.iterations) * float64(r.hits),
		}
		if r.interSamples > 0 {
			ec.MeanInterarrivalMillis = r.sumInterNs / float64(r.interSamples) / 1e6
		}
		rep.Top = append(rep.Top, ec)
	}
	sort.Slice(rep.Top, func(i, j int) bool {
		a, b := rep.Top[i], rep.Top[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Iterations != b.Iterations {
			return a.Iterations > b.Iterations
		}
		return a.Key < b.Key
	})
	if topN > 0 && len(rep.Top) > topN {
		rep.Top = rep.Top[:topN]
	}
	for _, it := range l.pairs.heap {
		a, b := l.pairRows(it.slot)
		rep.Pairs = append(rep.Pairs, PairCount{Keys: [2]string{a.key, b.key}, Count: it.count})
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Keys[0] != b.Keys[0] {
			return a.Keys[0] < b.Keys[0]
		}
		return a.Keys[1] < b.Keys[1]
	})
	if topN > 0 && len(rep.Pairs) > topN {
		rep.Pairs = rep.Pairs[:topN]
	}
	return rep
}

// Stats is the scrape-time counter snapshot behind the accqoc_usage_*
// metric families.
type Stats struct {
	Requests         int64
	TrackedKeys      int
	Trainings        int64
	Seeded           int64
	Cold             int64
	Iterations       int64
	TrainWallSeconds float64
	Hits             int64
	RegretEvents     int64
	RegretIterations int64
	RegretWallSecs   float64
	Evictions        int64
	Pairs            int
	DroppedPairs     int64
}

// Stats returns the counter snapshot.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Requests:         l.requests,
		TrackedKeys:      len(l.rows),
		RegretEvents:     l.regretEvents,
		RegretIterations: l.regretIterations,
		RegretWallSecs:   l.regretWallNs / 1e9,
		Evictions:        l.evictions,
		Pairs:            len(l.pairs.heap),
		DroppedPairs:     l.droppedPairs,
	}
	for _, r := range l.rows {
		st.Trainings += r.trainings
		st.Seeded += r.seeded
		st.Cold += r.cold
		st.Iterations += r.iterations
		st.TrainWallSeconds += r.wallNs / 1e9
		st.Hits += r.hits
	}
	return st
}

// EntryScore implements the cost-aware eviction policy's scorer
// (libstore.Scorer): the primary score is the accumulated iterations×hits
// product — the report's ranking signal — and the tiebreak is the raw
// accumulated iterations, so among never-hit entries an expensive one
// (667 iterations of 2Q training) outlives a nearly-free 1q one. Unknown
// keys score (0, 0). Called under the store's lock; the ledger mutex is
// a leaf (no ledger method calls back into the store), so this is
// deadlock-free by construction.
func (l *Ledger) EntryScore(key string) (score, tiebreak float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rows[key]
	if !ok {
		return 0, 0
	}
	return float64(r.iterations) * float64(r.hits), float64(r.iterations)
}

// LastWindow returns a copy of the newest request window's keys (the
// prefetch driver's prediction context), or nil when nothing has been
// recorded.
func (l *Ledger) LastWindow() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) == 0 {
		return nil
	}
	newest := len(l.ring) - 1
	if len(l.ring) == l.opts.HistorySize {
		newest = (l.ringNext - 1 + l.opts.HistorySize) % l.opts.HistorySize
	}
	return append([]string(nil), l.ring[newest].keys...)
}
