package libstore

import (
	"fmt"
	"testing"

	"accqoc/internal/precompile"
)

// keyedEntry builds a synthetic entry under an explicit key.
func keyedEntry(key string) *precompile.Entry {
	e := synthEntry(0)
	e.Key = key
	return e
}

// mapScorer is a fixed score table (unknown keys score zero, like a
// ledger that never saw them).
type mapScorer map[string][2]float64

func (m mapScorer) EntryScore(key string) (float64, float64) {
	s := m[key]
	return s[0], s[1]
}

// TestPolicyNilIsPureLRU pins the default path: a store with no policy
// (and one with the policy explicitly cleared) evicts exactly the LRU
// tail, same as it always has.
func TestPolicyNilIsPureLRU(t *testing.T) {
	for _, cleared := range []bool{false, true} {
		s := New(Options{Capacity: 2})
		if cleared {
			s.SetEvictionPolicy(CostAware(mapScorer{}))
			s.SetEvictionPolicy(nil)
		}
		for _, k := range []string{"a", "b", "c"} {
			s.Put(keyedEntry(k))
		}
		if s.Contains("a") || !s.Contains("b") || !s.Contains("c") {
			t.Fatalf("cleared=%v: LRU default broken: a=%v b=%v c=%v",
				cleared, s.Contains("a"), s.Contains("b"), s.Contains("c"))
		}
	}
}

// TestPolicyCostAwareVictim pins the cost-aware choice: the lowest
// iterations×hits score goes first regardless of recency, including the
// just-inserted entry.
func TestPolicyCostAwareVictim(t *testing.T) {
	scores := mapScorer{"a": {100, 100}, "b": {0, 0}, "c": {50, 50}}
	pol := CostAware(scores)
	s := New(Options{Capacity: 2})
	s.SetEvictionPolicy(pol)
	s.Put(keyedEntry("a"))
	s.Put(keyedEntry("b"))
	s.Put(keyedEntry("c")) // overflow: b has the minimal score, not LRU-tail a
	if s.Contains("b") || !s.Contains("a") || !s.Contains("c") {
		t.Fatalf("victim by score broken: a=%v b=%v c=%v",
			s.Contains("a"), s.Contains("b"), s.Contains("c"))
	}
	if st := pol.Stats(); st.CostPicks != 1 || st.LRUFallbacks != 0 {
		t.Fatalf("policy stats = %+v, want 1 cost pick", st)
	}

	// A worthless newcomer is itself the victim: the store keeps the
	// valuable residents and the insert washes straight through.
	s.Put(keyedEntry("zero"))
	if s.Contains("zero") || !s.Contains("a") || !s.Contains("c") {
		t.Fatalf("worthless newcomer retained over scored residents")
	}
}

// TestPolicyTiebreakProtectsExpensiveTraining pins the second clause of
// the score: among never-hit (score-zero) entries, raw training cost
// decides — a 667-iteration entry outlives a 20-iteration one even when
// it is the older of the two.
func TestPolicyTiebreakProtectsExpensiveTraining(t *testing.T) {
	scores := mapScorer{"cx2q": {0, 667}, "rz1q": {0, 20}, "h1q": {0, 20}}
	pol := CostAware(scores)
	s := New(Options{Capacity: 2})
	s.SetEvictionPolicy(pol)
	s.Put(keyedEntry("cx2q")) // oldest
	s.Put(keyedEntry("rz1q"))
	s.Put(keyedEntry("h1q"))
	if !s.Contains("cx2q") || s.Contains("rz1q") {
		t.Fatal("expensive never-hit entry was not protected by the iterations tiebreak")
	}

	// All-equal scores: the choice degenerates to LRU order (oldest goes)
	// and the fallback counter ticks.
	tied := CostAware(mapScorer{})
	s2 := New(Options{Capacity: 2})
	s2.SetEvictionPolicy(tied)
	s2.Put(keyedEntry("a"))
	s2.Put(keyedEntry("b"))
	s2.Put(keyedEntry("c"))
	if s2.Contains("a") || !s2.Contains("b") || !s2.Contains("c") {
		t.Fatal("full tie did not fall back to LRU order")
	}
	if st := tied.Stats(); st.LRUFallbacks != 1 || st.CostPicks != 0 {
		t.Fatalf("policy stats = %+v, want 1 LRU fallback", st)
	}
}

// TestPolicyOutOfRangeFallsBack pins the seam's contract: a policy
// returning a nonsense index degrades to the LRU tail instead of
// corrupting the store.
func TestPolicyOutOfRangeFallsBack(t *testing.T) {
	for _, idx := range []int{-1, 99} {
		s := New(Options{Capacity: 2})
		s.SetEvictionPolicy(fixedVictim(idx))
		for _, k := range []string{"a", "b", "c"} {
			s.Put(keyedEntry(k))
		}
		if s.Contains("a") || s.Len() != 2 {
			t.Fatalf("Victim()=%d: want LRU-tail eviction of a, got a=%v len=%d",
				idx, s.Contains("a"), s.Len())
		}
	}
}

type fixedVictim int

func (f fixedVictim) Victim(keys []string) int { return int(f) }

// TestPolicyVictimSeesLRUOrder pins the candidate ordering handed to the
// policy: least recently used first, most recent (the newcomer) last.
func TestPolicyVictimSeesLRUOrder(t *testing.T) {
	var seen [][]string
	s := New(Options{Capacity: 2})
	s.SetEvictionPolicy(captureVictim{&seen})
	s.Put(keyedEntry("a"))
	s.Put(keyedEntry("b"))
	s.Get("a") // refresh a: LRU order is now b, a
	s.Put(keyedEntry("c"))
	want := []string{"b", "a", "c"}
	if len(seen) != 1 || fmt.Sprint(seen[0]) != fmt.Sprint(want) {
		t.Fatalf("policy saw %v, want [%v]", seen, want)
	}
}

type captureVictim struct{ seen *[][]string }

func (c captureVictim) Victim(keys []string) int {
	*c.seen = append(*c.seen, append([]string(nil), keys...))
	return 0
}
