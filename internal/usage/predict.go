package usage

// The Predictor is the read side of the ledger's request-history mining —
// the piece that turns the (previously write-only) history ring and the
// co-occurrence pair table into a ranked next-key forecast for the
// speculative-training driver. Given the keys of a request window it asks:
// which keys, not in this window, tend to arrive alongside these, and
// which of them are due back soon?
//
// The score for a candidate key combines three signals:
//
//   - ring co-occurrence: every recent ring window sharing at least one
//     key with the input window votes for its other keys, weighted by the
//     overlap size and a geometric age decay (newest windows count most);
//   - the pair table: long-run co-occurrence counts between the window's
//     keys and the candidate, normalized by the total request count so the
//     prior stays comparable to the recency term as history grows;
//   - inter-arrival dueness: a multiplicative factor in [1, 2] that grows
//     as the time since the candidate's last arrival approaches its mean
//     inter-arrival gap — a key that is "due" ranks above one just served.
//
// Results are deterministic: ties break on ascending key.

import "sort"

// ringDecay is the per-window geometric age decay of the co-occurrence
// vote: the window before last counts 0.85 of the last, and so on.
const ringDecay = 0.85

// Prediction is one ranked likely-next key.
type Prediction struct {
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// Predictor mines a Ledger's history ring and pair table. It holds no
// state of its own; construct one per call site with Ledger.Predictor.
type Predictor struct {
	l *Ledger
}

// Predictor returns a predictor over this ledger.
func (l *Ledger) Predictor() *Predictor { return &Predictor{l: l} }

// Predict ranks the keys most likely to arrive next given the keys of a
// request window, best first, at most topN results (topN <= 0 keeps
// everything with a positive score). Keys already in the window are never
// predicted.
func (p *Predictor) Predict(window []string, topN int) []Prediction {
	if len(window) == 0 {
		return nil
	}
	in := make(map[string]bool, len(window))
	for _, k := range window {
		in[k] = true
	}

	l := p.l
	now := l.opts.now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()

	scores := map[string]float64{}

	// Recency vote from the history ring, newest window first.
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

	// Long-run prior from the pair table: counts between a window key and
	// the candidate, as a fraction of all requests.
	if l.requests > 0 {
		for _, it := range l.pairs.heap {
			ra, rb := l.pairRows(it.slot)
			a, b, n := ra.key, rb.key, float64(it.count)
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

// duenessLocked returns the inter-arrival boost for a key: 1 + min(1,
// elapsed/mean), where mean is the key's sampled mean inter-arrival gap.
// Keys without two timestamp-distinct arrivals get the neutral factor 1.
func (l *Ledger) duenessLocked(key string, nowNs int64) float64 {
	r, ok := l.rows[key]
	if !ok || r.interSamples == 0 || r.sumInterNs <= 0 || r.lastArrivalNs <= 0 {
		return 1
	}
	mean := r.sumInterNs / float64(r.interSamples)
	elapsed := float64(nowNs - r.lastArrivalNs)
	if elapsed <= 0 {
		return 1
	}
	due := elapsed / mean
	if due > 1 {
		due = 1
	}
	return 1 + due
}

// eachWindowNewestFirst visits every recorded ring window, newest first.
// Callers hold l.mu.
func (l *Ledger) eachWindowNewestFirst(visit func(request)) {
	n := len(l.ring)
	if n == 0 {
		return
	}
	start := n - 1
	if n == l.opts.HistorySize {
		start = (l.ringNext - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		visit(l.ring[(start-i+n)%n])
	}
}
