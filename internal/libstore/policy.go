package libstore

// Pluggable eviction: the store's LRU stays the mechanism (recency order,
// capacity bound, hook delivery), but when the store must shed an entry
// the *choice* of victim can be delegated to an EvictionPolicy. With no
// policy installed the LRU tail goes.
//
// The cost-aware policy here is the ROADMAP's "cost-aware cache policy":
// eviction by pure recency throws away whatever happens to be old, which
// for a pulse library means a 667-iteration 2Q training is discarded as
// readily as a 20-iteration 1q one. CostAware instead evicts the entry
// whose measured value — the usage ledger's iterations×hits score — is
// lowest, falling back to raw training cost between never-hit entries and
// to LRU order on full ties.

import "sync/atomic"

// EvictionPolicy picks the victim when the store exceeds its capacity.
// Victim receives every resident key in LRU order (least recently used
// first, so index 0 is the pure-LRU victim) and returns the index of the
// key to evict; out-of-range returns fall back to index 0. Calls run under
// the store's lock: implementations must be fast and must not call back
// into the Store (deadlock), the same contract as Hook.
type EvictionPolicy interface {
	Victim(keys []string) int
}

// SetEvictionPolicy installs the eviction victim selector (nil restores
// pure LRU). Evictions after the call use the new policy.
func (s *Store) SetEvictionPolicy(p EvictionPolicy) {
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
}

// Scorer values resident keys for the cost-aware policy. EntryScore
// returns a key's retention worth: score is the primary ordering
// (iterations×hits in the usage ledger's terms — expensive and popular is
// worth keeping), tiebreak orders equal scores (raw accumulated training
// iterations, so among never-hit entries the expensive one survives).
// Unknown keys return (0, 0). Called under the store's lock, so the same
// no-call-back constraint as EvictionPolicy applies.
type Scorer interface {
	EntryScore(key string) (score, tiebreak float64)
}

// PolicyStats is the cost-aware policy's counter snapshot.
type PolicyStats struct {
	// CostPicks counts evictions where scoring moved the victim away from
	// the LRU tail.
	CostPicks int64 `json:"cost_picks"`
	// LRUFallbacks counts evictions that degenerated to LRU order: the
	// tail entry already had the minimal (score, tiebreak), tied or not.
	LRUFallbacks int64 `json:"lru_fallbacks"`
}

// CostAwarePolicy evicts the minimal-(score, tiebreak) entry, LRU order
// breaking exact ties.
type CostAwarePolicy struct {
	scorer       Scorer
	costPicks    atomic.Int64
	lruFallbacks atomic.Int64
}

// CostAware returns a cost-aware eviction policy over a scorer.
func CostAware(sc Scorer) *CostAwarePolicy {
	return &CostAwarePolicy{scorer: sc}
}

// Victim implements EvictionPolicy: the index of the lowest-scoring key.
// Strict less keeps the earliest (least recently used) candidate on ties,
// which is the required LRU fallback.
func (p *CostAwarePolicy) Victim(keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	best := 0
	bestScore, bestTie := p.scorer.EntryScore(keys[0])
	for i := 1; i < len(keys); i++ {
		sc, tb := p.scorer.EntryScore(keys[i])
		if sc < bestScore || (sc == bestScore && tb < bestTie) {
			best, bestScore, bestTie = i, sc, tb
		}
	}
	if best == 0 {
		p.lruFallbacks.Add(1)
	} else {
		p.costPicks.Add(1)
	}
	return best
}

// Stats returns the counter snapshot.
func (p *CostAwarePolicy) Stats() PolicyStats {
	return PolicyStats{
		CostPicks:    p.costPicks.Load(),
		LRUFallbacks: p.lruFallbacks.Load(),
	}
}
