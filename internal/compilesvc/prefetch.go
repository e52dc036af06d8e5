package compilesvc

// The speculative-training driver: the policy consumer of the usage
// ledger's history mining. When the pool is idle — empty queue, a free
// worker — the prefetcher asks each device's Predictor which keys are
// likely next given the most recent request window, filters to predicted
// *misses* that have a retained training target, and trains the best one
// through the namespace store's ordinary GetOrTrain singleflight. The
// objective is the regret counter: every predicted miss re-covered during
// idle cycles is an eviction the ledger would otherwise have charged.
//
// Priority inversion is guarded twice, the same shape as the calibration
// roll driver: admission refuses to enqueue unless the queue is empty and
// a worker is free, and the worker re-checks queue depth at pickup —
// request traffic that arrived while the speculation sat queued wins, and
// the item is abandoned untried. At most one speculative training is in
// flight at a time (the driver feeds items strictly one by one).

import (
	"sync"
	"sync/atomic"
	"time"

	"accqoc/internal/devreg"
	"accqoc/internal/precompile"
)

// PrefetchOptions tunes the driver. The zero value selects the defaults.
type PrefetchOptions struct {
	// Interval is the idle-cycle period. Default 50ms.
	Interval time.Duration
	// Depth is how many ranked predictions are examined per device per
	// cycle (the first actionable one is trained). Default 4.
	Depth int
}

func (o PrefetchOptions) withDefaults() PrefetchOptions {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.Depth <= 0 {
		o.Depth = 4
	}
	return o
}

// PrefetchStats is one device's (or the fleet-aggregated) counter
// snapshot — the accqoc_prefetch_* metric families and the additive
// stats/usage endpoint block.
type PrefetchStats struct {
	// Predicted counts ranked predictions examined; NoTarget the subset
	// that was uncovered but had no retained training target.
	Predicted int64 `json:"predicted"`
	NoTarget  int64 `json:"no_target"`
	// Trained counts speculative trainings that ran to completion, Seeded
	// those that warm-started from the seed index, Iterations their summed
	// GRAPE cost.
	Trained    int64 `json:"trained"`
	Seeded     int64 `json:"seeded"`
	Iterations int64 `json:"iterations"`
	// Skipped counts items already covered (or covered by a racing
	// request's training) by execution time; Abandoned items yielded to
	// request traffic (admission refusal or pickup re-check); Failed
	// trainings that did not converge.
	Skipped   int64 `json:"skipped"`
	Abandoned int64 `json:"abandoned"`
	Failed    int64 `json:"failed"`
}

type prefetchCounters struct {
	predicted, noTarget, trained, seeded atomic.Int64
	iterations, skipped, abandoned       atomic.Int64
	failed                               atomic.Int64
}

func (c *prefetchCounters) snapshot() PrefetchStats {
	return PrefetchStats{
		Predicted:  c.predicted.Load(),
		NoTarget:   c.noTarget.Load(),
		Trained:    c.trained.Load(),
		Seeded:     c.seeded.Load(),
		Iterations: c.iterations.Load(),
		Skipped:    c.skipped.Load(),
		Abandoned:  c.abandoned.Load(),
		Failed:     c.failed.Load(),
	}
}

func (s PrefetchStats) add(o PrefetchStats) PrefetchStats {
	s.Predicted += o.Predicted
	s.NoTarget += o.NoTarget
	s.Trained += o.Trained
	s.Seeded += o.Seeded
	s.Iterations += o.Iterations
	s.Skipped += o.Skipped
	s.Abandoned += o.Abandoned
	s.Failed += o.Failed
	return s
}

// Prefetcher is the idle-cycle driver. Construct with NewPrefetcher;
// Close stops the background loop.
type Prefetcher struct {
	pool *Pool
	reg  *devreg.Registry
	opts PrefetchOptions

	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu       sync.Mutex
	counters map[string]*prefetchCounters
}

// NewPrefetcher builds the driver over a pool and a device registry and
// starts its idle-cycle loop.
func NewPrefetcher(pool *Pool, reg *devreg.Registry, opts PrefetchOptions) *Prefetcher {
	pf := &Prefetcher{
		pool:     pool,
		reg:      reg,
		opts:     opts.withDefaults(),
		quit:     make(chan struct{}),
		counters: map[string]*prefetchCounters{},
	}
	pf.wg.Add(1)
	go pf.loop()
	return pf
}

func (pf *Prefetcher) loop() {
	defer pf.wg.Done()
	tick := time.NewTicker(pf.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-pf.quit:
			return
		case <-tick.C:
			pf.RunOnce()
		}
	}
}

// Close stops the loop and waits out any in-flight cycle.
func (pf *Prefetcher) Close() {
	pf.closeOnce.Do(func() { close(pf.quit) })
	pf.wg.Wait()
}

// Stats returns the fleet-aggregated counter snapshot.
func (pf *Prefetcher) Stats() PrefetchStats {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	var s PrefetchStats
	for _, c := range pf.counters {
		s = s.add(c.snapshot())
	}
	return s
}

// StatsFor returns one device's counter snapshot.
func (pf *Prefetcher) StatsFor(device string) PrefetchStats {
	pf.mu.Lock()
	c := pf.counters[device]
	pf.mu.Unlock()
	if c == nil {
		return PrefetchStats{}
	}
	return c.snapshot()
}

func (pf *Prefetcher) countersFor(device string) *prefetchCounters {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	c := pf.counters[device]
	if c == nil {
		c = &prefetchCounters{}
		pf.counters[device] = c
	}
	return c
}

// RunOnce runs one full idle cycle across every registered device:
// predict, filter to actionable misses, and train at most one key per
// device. Exported so tests and replay benchmarks can drive the cycle
// deterministically instead of racing the ticker.
func (pf *Prefetcher) RunOnce() {
	for _, name := range pf.reg.Names() {
		select {
		case <-pf.quit:
			return
		default:
		}
		pf.runDevice(name)
	}
}

func (pf *Prefetcher) runDevice(name string) {
	ns, err := pf.reg.Acquire(name)
	if err != nil {
		return
	}
	defer ns.Release()
	if ns.Targets == nil {
		return
	}
	// Idle gate: speculation runs strictly below request traffic.
	if pf.pool.QueueLen() > 0 || pf.pool.InFlight() >= pf.pool.Workers() {
		return
	}
	window := ns.Usage.LastWindow()
	if len(window) == 0 {
		return
	}
	c := pf.countersFor(name)
	preds := ns.Usage.Predictor().Predict(window, pf.opts.Depth)
	c.predicted.Add(int64(len(preds)))
	for _, pr := range preds {
		if ns.Store.Contains(pr.Key) {
			continue
		}
		tgt, ok := ns.Targets.Get(pr.Key)
		if !ok {
			c.noTarget.Add(1)
			continue
		}
		// The retained target supplies only the unitary: an admitted index
		// seed lends its pulse and latency, and an unseeded key trains cold
		// with no hint — the training a miss would pay, off the request
		// path.
		seed := func() *precompile.Entry {
			s := &precompile.Entry{Key: pr.Key, NumQubits: tgt.NumQubits}
			if sd, ok := ns.Seeds.Nearest(tgt.Unitary, tgt.NumQubits); ok {
				s.Pulse, s.LatencyNs = sd.Pulse, sd.LatencyNs
			}
			return s
		}
		var out retrainOutcome
		var iters int
		var seeded bool
		err := pf.pool.prefetch(func() {
			// Pickup re-check: request traffic that queued behind the
			// speculation wins, and the item is abandoned untried.
			if len(pf.pool.tasks) > 0 {
				return // out stays retrainAbandoned
			}
			out, iters, seeded = pf.pool.retrain(ns, pr.Key, tgt.Unitary, seed)
		})
		if err != nil {
			// Admission refused (queue pressure or shutdown): yield.
			c.abandoned.Add(1)
			return
		}
		switch out {
		case retrainTrained:
			c.trained.Add(1)
			c.iterations.Add(int64(iters))
			if seeded {
				c.seeded.Add(1)
			}
		case retrainSkipped:
			c.skipped.Add(1)
		case retrainAbandoned:
			c.abandoned.Add(1)
		case retrainFailed:
			c.failed.Add(1)
		}
		// One speculative training per device per cycle.
		return
	}
}

// prefetch runs fn, one speculative training, on a worker and blocks
// until it ran. Admission is the inverse of request traffic's: unless the
// queue is empty and a worker is free, fn is refused with ErrQueueFull.
func (p *Pool) prefetch(fn func()) error {
	if p.QueueLen() > 0 || p.InFlight() >= p.Workers() {
		return ErrQueueFull
	}
	return p.runOne(fn)
}
