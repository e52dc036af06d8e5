package usage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"accqoc/internal/precompile"
)

func entry(key string, iters int, wallNs float64, seeded bool) *precompile.Entry {
	return &precompile.Entry{
		Key:         key,
		NumQubits:   1,
		Iterations:  iters,
		TrainWallNs: wallNs,
		Seeded:      seeded,
	}
}

// TestLedgerAccumulation pins the core accounting: trainings, provenance,
// iterations, wall time, hits, and the same-entry idempotency of
// EntryAdded (hook-then-backfill double delivery).
func TestLedgerAccumulation(t *testing.T) {
	l := NewLedger(Options{})
	a := entry("a", 100, 5e6, false)
	l.EntryAdded(a)
	l.EntryAdded(a) // backfill re-delivery: must not recount
	l.EntryHit("a")
	l.EntryHit("a")
	l.EntryAdded(entry("a", 40, 2e6, true)) // epoch re-training accumulates
	l.EntryAdded(entry("b", 7, 1e6, true))

	rep := l.Report(0)
	if rep.TrackedKeys != 2 {
		t.Fatalf("tracked keys = %d, want 2", rep.TrackedKeys)
	}
	if rep.Totals.Trainings != 3 || rep.Totals.Seeded != 2 || rep.Totals.Cold != 1 {
		t.Fatalf("totals trainings/seeded/cold = %d/%d/%d, want 3/2/1",
			rep.Totals.Trainings, rep.Totals.Seeded, rep.Totals.Cold)
	}
	if rep.Totals.Iterations != 147 {
		t.Fatalf("total iterations = %d, want 147", rep.Totals.Iterations)
	}
	if rep.Totals.Hits != 2 {
		t.Fatalf("total hits = %d, want 2", rep.Totals.Hits)
	}
	if got, want := rep.Totals.TrainWallMillis, 8.0; got != want {
		t.Fatalf("total wall millis = %v, want %v", got, want)
	}
	// Ranking: score = iterations × hits, so "a" (140×2) beats "b" (7×0).
	if rep.Top[0].Key != "a" || rep.Top[0].Score != 280 {
		t.Fatalf("top[0] = %+v, want key a score 280", rep.Top[0])
	}
	if rep.Top[0].Trainings != 2 || rep.Top[0].Seeded != 1 || rep.Top[0].Cold != 1 {
		t.Fatalf("row a provenance = %+v", rep.Top[0])
	}
}

// TestLedgerSnapshotCarriedHits pins the restart path: an entry loaded
// with a nonzero Hits field seeds its row's hit count exactly once, even
// when the entry is re-delivered or later replaced.
func TestLedgerSnapshotCarriedHits(t *testing.T) {
	l := NewLedger(Options{})
	e := entry("a", 10, 0, false)
	e.Hits = 7
	l.EntryAdded(e)
	l.EntryAdded(e) // re-delivery
	if st := l.Stats(); st.Hits != 7 {
		t.Fatalf("hits after carried load = %d, want 7", st.Hits)
	}
	repl := entry("a", 3, 0, true)
	repl.Hits = 7 // a replace with the same carried count must not double
	l.EntryAdded(repl)
	if st := l.Stats(); st.Hits != 7 {
		t.Fatalf("hits after replace = %d, want 7", st.Hits)
	}
}

// TestLedgerRegret pins the eviction-regret latch: the first post-eviction
// miss charges the row's accumulated cost once; further misses only count;
// a re-add re-arms the latch.
func TestLedgerRegret(t *testing.T) {
	l := NewLedger(Options{})
	l.EntryAdded(entry("a", 50, 3e6, false))
	l.EntryMissed("zzz") // unknown key: no row, no regret
	l.EntryRemoved("a")
	if st := l.Stats(); st.RegretEvents != 0 || st.Evictions != 1 {
		t.Fatalf("eviction alone charged regret: %+v", st)
	}
	l.EntryMissed("a")
	l.EntryMissed("a")
	st := l.Stats()
	if st.RegretEvents != 1 || st.RegretIterations != 50 {
		t.Fatalf("regret events/iterations = %d/%d, want 1/50", st.RegretEvents, st.RegretIterations)
	}
	if got, want := st.RegretWallSecs, 3e-3; got != want {
		t.Fatalf("regret wall = %v, want %v", got, want)
	}

	// Re-train (re-add) then evict and miss again: a second charge, now
	// with the accumulated cost of both trainings.
	l.EntryAdded(entry("a", 10, 1e6, true))
	l.EntryRemoved("a")
	l.EntryMissed("a")
	st = l.Stats()
	if st.RegretEvents != 2 || st.RegretIterations != 50+60 {
		t.Fatalf("second regret events/iterations = %d/%d, want 2/110", st.RegretEvents, st.RegretIterations)
	}

	rep := l.Report(0)
	if rep.Top[0].MissesEvicted != 3 || rep.Top[0].Evictions != 2 {
		t.Fatalf("row misses/evictions = %d/%d, want 3/2", rep.Top[0].MissesEvicted, rep.Top[0].Evictions)
	}
}

// TestLedgerCoOccurrence pins the request-history miner: unordered pair
// counts, per-key inter-arrival means under a fake clock, and the report
// ordering.
func TestLedgerCoOccurrence(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := NewLedger(Options{now: func() time.Time { return clock }})
	l.RecordRequest([]string{"b", "a", "c"})
	clock = clock.Add(10 * time.Millisecond)
	l.RecordRequest([]string{"a", "b"})
	clock = clock.Add(30 * time.Millisecond)
	l.RecordRequest([]string{"a", "b"})

	rep := l.Report(0)
	if rep.Requests != 3 || rep.HistorySize != 3 {
		t.Fatalf("requests/history = %d/%d, want 3/3", rep.Requests, rep.HistorySize)
	}
	if len(rep.Pairs) != 3 {
		t.Fatalf("pairs = %v, want 3 distinct", rep.Pairs)
	}
	if rep.Pairs[0].Keys != [2]string{"a", "b"} || rep.Pairs[0].Count != 3 {
		t.Fatalf("top pair = %+v, want a,b ×3", rep.Pairs[0])
	}
	var a *EntryCost
	for i := range rep.Top {
		if rep.Top[i].Key == "a" {
			a = &rep.Top[i]
		}
	}
	if a == nil {
		t.Fatal("key a missing from report")
	}
	// Mean inter-arrival of a: (10ms + 30ms) / 2 = 20ms.
	if a.MeanInterarrivalMillis != 20 {
		t.Fatalf("mean inter-arrival = %v ms, want 20", a.MeanInterarrivalMillis)
	}
}

// TestLedgerBounds pins the two caps: the history ring holds the newest
// HistorySize windows, and the pair map never grows past PairCap — at
// capacity an unseen pair displaces the lowest-count one (space-saving),
// with DroppedPairs counting the displacements.
func TestLedgerBounds(t *testing.T) {
	l := NewLedger(Options{HistorySize: 4, PairCap: 2})
	for i := 0; i < 10; i++ {
		l.RecordRequest([]string{fmt.Sprintf("k%02d", i), fmt.Sprintf("k%02d", i+100)})
	}
	rep := l.Report(0)
	if rep.Requests != 10 || rep.HistorySize != 4 {
		t.Fatalf("requests/history = %d/%d, want 10/4", rep.Requests, rep.HistorySize)
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("pair map grew past cap: %d pairs", len(rep.Pairs))
	}
	if rep.DroppedPairs != 8 {
		t.Fatalf("dropped pairs = %d, want 8", rep.DroppedPairs)
	}
	// A pair displaced long ago can come back: it re-enters with the
	// evicted minimum plus one (the space-saving overestimate), so the
	// recorded count is an upper bound, never a silent drop.
	l.RecordRequest([]string{"k00", "k100"})
	rep = l.Report(0)
	if rep.Pairs[0].Keys != [2]string{"k00", "k100"} {
		t.Fatalf("re-admitted pair missing: %+v", rep.Pairs)
	}
	if len(rep.Pairs) != 2 || rep.DroppedPairs != 9 {
		t.Fatalf("pairs/dropped after re-admission = %d/%d, want 2/9", len(rep.Pairs), rep.DroppedPairs)
	}
}

// TestLedgerPairDisplacement is the starvation regression: before the
// space-saving fix, once the pair map filled, a brand-new hot pair was
// dropped forever while stale cold pairs squatted. Now the fresh hot pair
// must displace the cold one and accumulate.
func TestLedgerPairDisplacement(t *testing.T) {
	l := NewLedger(Options{PairCap: 1})
	l.RecordRequest([]string{"cold1", "cold2"}) // fills the map
	for i := 0; i < 5; i++ {
		l.RecordRequest([]string{"hot1", "hot2"})
	}
	rep := l.Report(0)
	if len(rep.Pairs) != 1 {
		t.Fatalf("pair map size = %d, want 1", len(rep.Pairs))
	}
	if rep.Pairs[0].Keys != [2]string{"hot1", "hot2"} {
		t.Fatalf("hot pair failed to displace cold squatter: %+v", rep.Pairs[0])
	}
	// Displaced min was 1, so the hot pair entered at 2 and gained 4 more.
	if rep.Pairs[0].Count != 6 {
		t.Fatalf("hot pair count = %d, want 6", rep.Pairs[0].Count)
	}
	if rep.DroppedPairs != 1 {
		t.Fatalf("dropped pairs = %d, want 1 displacement", rep.DroppedPairs)
	}
}

// refPairTable is the pair table as it was before the heap, kept as the
// reference model of TestPairHeapMatchesScan: a map keyed "a\x00b" whose
// space-saving victim is found by scanning every pair for the lowest
// (count, key).
type refPairTable struct {
	cap     int
	counts  map[string]int64
	dropped int64
}

func (r *refPairTable) record(keys []string) {
	kc := append([]string(nil), keys...)
	sort.Strings(kc)
	for i := range kc {
		for j := i + 1; j < len(kc); j++ {
			if kc[i] == kc[j] {
				continue
			}
			pk := kc[i] + "\x00" + kc[j]
			if _, ok := r.counts[pk]; !ok && len(r.counts) >= r.cap {
				r.counts[pk] = r.evictColdest() + 1
				r.dropped++
				continue
			}
			r.counts[pk]++
		}
	}
}

func (r *refPairTable) evictColdest() int64 {
	var minKey string
	var minCount int64
	first := true
	for pk, n := range r.counts {
		if first || n < minCount || (n == minCount && pk < minKey) {
			minKey, minCount, first = pk, n, false
		}
	}
	delete(r.counts, minKey)
	return minCount
}

// TestPairHeapMatchesScan is the differential test of the heap-indexed
// pair table: seeded random request streams drive a Ledger and the
// linear-scan reference side by side, and after every request the pair
// counts and DroppedPairs must agree exactly and the heap must be a valid
// min-heap whose slots know their own index. Small caps and key universes
// keep the table displacing and the counts tied, and keys like k1/k10
// put prefix pairs into the tie-breaks.
func TestPairHeapMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairCap := 1 + rng.Intn(40)
		universe := make([]string, 2+rng.Intn(15))
		for i := range universe {
			universe[i] = "k" + strconv.Itoa(i)
		}
		l := NewLedger(Options{PairCap: pairCap})
		ref := &refPairTable{cap: pairCap, counts: map[string]int64{}}
		for req := 0; req < 300; req++ {
			window := make([]string, 1+rng.Intn(8))
			for i := range window {
				window[i] = universe[rng.Intn(len(universe))]
			}
			l.RecordRequest(window)
			ref.record(window)
			if err := checkPairTable(l, ref); err != nil {
				t.Fatalf("seed %d cap %d request %d %v: %v", seed, pairCap, req, window, err)
			}
		}
	}
}

// checkPairTable compares a ledger's pair table with the reference and
// checks the heap's order, index and rank invariants.
func checkPairTable(l *Ledger, ref *refPairTable) error {
	if got := l.Stats().DroppedPairs; got != ref.dropped {
		return fmt.Errorf("dropped pairs = %d, reference %d", got, ref.dropped)
	}
	t := &l.pairs
	if len(t.index) != len(ref.counts) || len(t.heap) != len(t.index) || len(t.ids) != len(t.heap) || len(t.at) != len(t.heap) {
		return fmt.Errorf("index %d / heap %d / slots %d,%d, reference %d", len(t.index), len(t.heap), len(t.ids), len(t.at), len(ref.counts))
	}
	for i, it := range t.heap {
		a, b := l.pairRows(it.slot)
		want, ok := ref.counts[a.key+"\x00"+b.key]
		if !ok || it.count != want {
			return fmt.Errorf("pair %q,%q count %d, reference %d (present %v)", a.key, b.key, it.count, want, ok)
		}
		if t.at[it.slot] != int32(i) || t.index[t.ids[it.slot]] != it.slot {
			return fmt.Errorf("heap slot %d records index %d", i, t.at[it.slot])
		}
		if a.key >= b.key || it.ranks != uint64(a.rank)<<32|uint64(b.rank) {
			return fmt.Errorf("heap slot %d carries ranks %x for %q (rank %d), %q (rank %d)", i, it.ranks, a.key, a.rank, b.key, b.rank)
		}
		if p := (i - 1) / 2; i > 0 && it.less(t.heap[p]) {
			return fmt.Errorf("heap slot %d orders before its parent %d", i, p)
		}
	}
	for i, r := range l.ranked {
		if r.rank != uint32(i) || i > 0 && l.ranked[i-1].key >= r.key {
			return fmt.Errorf("key %q ranked %d at %d", r.key, r.rank, i)
		}
	}
	return nil
}

// pairKey, pairSlot, pairLess and pairHeap are the string-keyed pair
// table the ledger kept before key ids and ranks, verbatim: the reference
// model of TestPairHeapMatchesReference.

// pairKey is one unordered co-occurrence pair, a < b.
type pairKey struct{ a, b string }

// pairSlot is one pair-table row and its current index in the heap.
type pairSlot struct {
	key   pairKey
	count int64
	at    int
}

// pairLess is the space-saving victim order: lowest count first, ties on
// the lexically smallest pair, so displacement is deterministic.
func pairLess(x, y *pairSlot) bool {
	if x.count != y.count {
		return x.count < y.count
	}
	if x.key.a != y.key.a {
		return x.key.a < y.key.a
	}
	return x.key.b < y.key.b
}

// pairHeap is a binary min-heap of pair slots under pairLess that keeps
// every slot's at field equal to its index, so a count change re-sifts
// from the slot in O(log n) and the displacement victim is always h[0].
type pairHeap []*pairSlot

func (h *pairHeap) push(s *pairSlot) {
	s.at = len(*h)
	*h = append(*h, s)
	h.up(s.at)
}

func (h pairHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !pairLess(h[i], h[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h pairHeap) down(i int) {
	for {
		m := i
		if c := 2*i + 1; c < len(h) && pairLess(h[c], h[m]) {
			m = c
		}
		if c := 2*i + 2; c < len(h) && pairLess(h[c], h[m]) {
			m = c
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h pairHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}

// refHeapTable files requests into the string-keyed heap the way
// RecordRequest's pair loop did before key ids.
type refHeapTable struct {
	cap          int
	pairs        map[pairKey]*pairSlot
	pairHeap     pairHeap
	droppedPairs int64
}

func (r *refHeapTable) record(keys []string) {
	kc := append([]string(nil), keys...)
	sort.Strings(kc)
	for i := 0; i < len(kc); i++ {
		for j := i + 1; j < len(kc); j++ {
			if kc[i] == kc[j] {
				continue
			}
			pk := pairKey{kc[i], kc[j]}
			if s, ok := r.pairs[pk]; ok {
				s.count++
				r.pairHeap.down(s.at)
				continue
			}
			if len(r.pairHeap) < r.cap {
				s := &pairSlot{key: pk, count: 1}
				r.pairs[pk] = s
				r.pairHeap.push(s)
				continue
			}
			s := r.pairHeap[0]
			delete(r.pairs, s.key)
			s.key = pk
			s.count++
			r.pairs[pk] = s
			r.pairHeap.down(0)
			r.droppedPairs++
		}
	}
}

// refPredict is Predict as it was before key ids: the same ring vote and
// dueness, with the pair-table prior summed over the reference heap in
// its heap order.
func refPredict(l *Ledger, ref *refHeapTable, window []string, topN int) []Prediction {
	if len(window) == 0 {
		return nil
	}
	in := make(map[string]bool, len(window))
	for _, k := range window {
		in[k] = true
	}

	now := l.opts.now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()

	scores := map[string]float64{}

	weight := 1.0
	l.eachWindowNewestFirst(func(req request) {
		overlap := 0
		for _, k := range req.keys {
			if in[k] {
				overlap++
			}
		}
		if overlap > 0 {
			for _, k := range req.keys {
				if !in[k] {
					scores[k] += weight * float64(overlap)
				}
			}
		}
		weight *= ringDecay
	})

	if l.requests > 0 {
		for _, s := range ref.pairHeap {
			a, b, n := s.key.a, s.key.b, float64(s.count)
			switch {
			case in[a] && !in[b]:
				scores[b] += n / float64(l.requests)
			case in[b] && !in[a]:
				scores[a] += n / float64(l.requests)
			}
		}
	}

	preds := make([]Prediction, 0, len(scores))
	for k, s := range scores {
		if s <= 0 {
			continue
		}
		preds = append(preds, Prediction{Key: k, Score: s * l.duenessLocked(k, now)})
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Score != preds[j].Score {
			return preds[i].Score > preds[j].Score
		}
		return preds[i].Key < preds[j].Key
	})
	if topN > 0 && len(preds) > topN {
		preds = preds[:topN]
	}
	return preds
}

// TestPairHeapMatchesReference drives a Ledger and the string-keyed heap
// it replaced side by side over seeded request streams. Caps are small so
// that pairs keep being displaced and counts tie; keys are k<number>, so
// prefix pairs such as k1/k10 reach the tie-breaks; and the key universe
// grows mid-stream with keys that sort between known ones, shifting the
// ranks of keys already in the heap. After every request each heap index
// must hold the same pair with the same count, and Predict under a fixed
// clock must return the reference's keys and scores bit for bit.
func TestPairHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1000, 0)
		pairCap := 1 + rng.Intn(40)
		l := NewLedger(Options{HistorySize: 1 + rng.Intn(12), PairCap: pairCap, now: func() time.Time { return clock }})
		ref := &refHeapTable{cap: pairCap, pairs: map[pairKey]*pairSlot{}}
		universe := []string{"k" + strconv.Itoa(rng.Intn(200)), "k" + strconv.Itoa(rng.Intn(200))}
		for req := 0; req < 250; req++ {
			if rng.Intn(4) == 0 {
				universe = append(universe, "k"+strconv.Itoa(rng.Intn(200)))
			}
			window := make([]string, 1+rng.Intn(8))
			for i := range window {
				window[i] = universe[rng.Intn(len(universe))]
			}
			l.RecordRequest(window)
			ref.record(window)
			if err := sameHeap(l, ref); err != nil {
				t.Fatalf("seed %d cap %d request %d %v: %v", seed, pairCap, req, window, err)
			}
			clock = clock.Add(time.Duration(rng.Intn(3)) * time.Millisecond)
			probe := []string{universe[rng.Intn(len(universe))], universe[rng.Intn(len(universe))]}
			got, want := l.Predictor().Predict(probe, 0), refPredict(l, ref, probe, 0)
			if len(got) != len(want) {
				t.Fatalf("seed %d request %d: %d predictions, reference %d", seed, req, len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("seed %d request %d: prediction %d is %+v, reference %+v", seed, req, i, got[i], want[i])
				}
			}
		}
	}
}

// sameHeap reports the first heap index at which the ledger's pair table
// and the reference hold a different pair or count.
func sameHeap(l *Ledger, ref *refHeapTable) error {
	if l.droppedPairs != ref.droppedPairs {
		return fmt.Errorf("dropped pairs = %d, reference %d", l.droppedPairs, ref.droppedPairs)
	}
	if len(l.pairs.heap) != len(ref.pairHeap) {
		return fmt.Errorf("heap holds %d pairs, reference %d", len(l.pairs.heap), len(ref.pairHeap))
	}
	for i, it := range l.pairs.heap {
		a, b := l.pairRows(it.slot)
		want := ref.pairHeap[i]
		if a.key != want.key.a || b.key != want.key.b || it.count != want.count {
			return fmt.Errorf("heap index %d holds %q,%q ×%d, reference %q,%q ×%d", i, a.key, b.key, it.count, want.key.a, want.key.b, want.count)
		}
	}
	return nil
}

// TestLedgerInterarrivalDuplicateTimestamps is the divisor-bias
// regression: same-timestamp arrivals contribute no gap and must not
// inflate the mean's divisor. Three arrivals at t, t, t+20ms sample
// exactly one 20ms gap — the mean is 20ms, not 10ms.
func TestLedgerInterarrivalDuplicateTimestamps(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := NewLedger(Options{now: func() time.Time { return clock }})
	l.RecordRequest([]string{"a"})
	l.RecordRequest([]string{"a"}) // duplicate timestamp: no gap sampled
	clock = clock.Add(20 * time.Millisecond)
	l.RecordRequest([]string{"a"})
	rep := l.Report(0)
	if rep.Top[0].MeanInterarrivalMillis != 20 {
		t.Fatalf("mean inter-arrival = %v ms, want 20", rep.Top[0].MeanInterarrivalMillis)
	}
	// A key with arrivals but no timestamp-distinct gap reports no mean.
	l2 := NewLedger(Options{now: func() time.Time { return clock }})
	l2.RecordRequest([]string{"b"})
	l2.RecordRequest([]string{"b"})
	if got := l2.Report(0).Top[0].MeanInterarrivalMillis; got != 0 {
		t.Fatalf("gapless mean inter-arrival = %v ms, want 0", got)
	}
}

// TestLedgerHitWithoutRow is the registration-order regression: a hit
// delivered before any EntryAdded (hook installed without backfill) must
// create the row rather than vanish, and the later add still adopts
// snapshot-carried hits exactly once on top.
func TestLedgerHitWithoutRow(t *testing.T) {
	l := NewLedger(Options{})
	l.EntryHit("a")
	if st := l.Stats(); st.Hits != 1 || st.TrackedKeys != 1 {
		t.Fatalf("hits/tracked after early hit = %d/%d, want 1/1", st.Hits, st.TrackedKeys)
	}
	e := entry("a", 10, 0, false)
	e.Hits = 2
	l.EntryAdded(e)
	if st := l.Stats(); st.Hits != 3 {
		t.Fatalf("hits after add with carried count = %d, want 3", st.Hits)
	}
}

// TestLedgerTopN pins the report truncation.
func TestLedgerTopN(t *testing.T) {
	l := NewLedger(Options{})
	for i := 0; i < 5; i++ {
		e := entry(fmt.Sprintf("k%d", i), 10*(i+1), 0, false)
		l.EntryAdded(e)
		l.EntryHit(e.Key)
	}
	rep := l.Report(2)
	if len(rep.Top) != 2 {
		t.Fatalf("topN = %d rows, want 2", len(rep.Top))
	}
	if rep.Top[0].Key != "k4" || rep.Top[1].Key != "k3" {
		t.Fatalf("top order = %s,%s, want k4,k3", rep.Top[0].Key, rep.Top[1].Key)
	}
	if rep.TrackedKeys != 5 {
		t.Fatalf("tracked keys = %d, want 5 (truncation must not hide totals)", rep.TrackedKeys)
	}
}

// TestLedgerConcurrency hammers every entry point under the race detector
// and checks the totals settle to the oracle counts.
func TestLedgerConcurrency(t *testing.T) {
	l := NewLedger(Options{HistorySize: 8, PairCap: 64})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < perWorker; i++ {
				l.EntryAdded(entry(key, 1, 1, i%2 == 0))
				l.EntryHit(key)
				l.EntryRemoved(key)
				l.EntryMissed(key)
				l.RecordRequest([]string{key, "shared"})
				l.Stats()
				l.Report(4)
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	want := int64(workers * perWorker)
	if st.Trainings != want || st.Hits != want || st.Evictions != want {
		t.Fatalf("trainings/hits/evictions = %d/%d/%d, want %d each", st.Trainings, st.Hits, st.Evictions, want)
	}
	// Every miss follows an eviction of a costed row, so every cycle
	// charges regret exactly once.
	if st.RegretEvents != want {
		t.Fatalf("regret events = %d, want %d", st.RegretEvents, want)
	}
	if st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}
}
