package compilesvc

// Request batching. Submissions against the same (device, epoch)
// namespace that arrive within one BatchWindow flush to the pool as a
// single task and share one resolveGroups pass: their unique groups are
// unioned, resolved once (coverage plan, MST ordering, singleflight
// training), and each key's outcome is counted into every request that
// owns it, with that request's own occurrence count. A synchronous
// request is the same task with one request and no window. Batching lives
// in the training tier, not the HTTP layer, because only the tier that
// plans groups can know that two circuits share work — the routing tier
// sees opaque programs.
//
// Counter semantics under sharing: when two batched jobs reference the
// same cold group, the one shared training's iterations (and warm-seed
// credit) appear in BOTH responses — each job did wait on that GRAPE run,
// exactly like two concurrent sync requests where one trains and one
// joins, except the batch cannot tell who "owned" the training. The
// store- and pool-level counters (trainings, warm_seeded) still count it
// once.

import (
	"sync"
	"time"

	"accqoc/internal/devreg"
	"accqoc/internal/obs"
)

// call is one request in the training tier plus its lifecycle callbacks.
type call struct {
	req *Request
	// start, when set, is asked at worker pickup whether the request
	// still runs (false: it was canceled). done answers it exactly once.
	start func() bool
	done  func(*Result, error)
	// begin is where CompileMillis starts: submission for an async job
	// (batch window included), worker pickup when left unset.
	begin time.Time
	// waitSpan times submit → batch flush; queueSpan times enqueue →
	// worker pickup.
	waitSpan  *obs.Span
	queueSpan *obs.Span
}

// batch makes one pool task of calls against one namespace.
func (p *Pool) batch(calls []*call) *task {
	return &task{
		run: func() { p.serve(calls) },
		fail: func(err error) {
			for _, c := range calls {
				c.done(nil, err)
			}
		},
	}
}

// batcher groups async submissions by namespace until their window
// elapses, then flushes each group to the pool as one task.
type batcher struct {
	pool   *Pool
	window time.Duration

	mu     sync.Mutex
	closed bool
	groups map[*devreg.Namespace]*batchGroup
}

type batchGroup struct {
	calls []*call
	timer *time.Timer
}

func newBatcher(p *Pool, window time.Duration) *batcher {
	return &batcher{pool: p, window: window, groups: map[*devreg.Namespace]*batchGroup{}}
}

// add admits one async submission, arming the namespace's flush timer on
// first use. The namespace pointer is the batch key: one live namespace
// per (device, epoch), so requests across devices or epochs never batch.
func (b *batcher) add(req *Request, start func() bool, done func(*Result, error)) error {
	c := &call{req: req, start: start, done: done, begin: time.Now()}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	c.waitSpan = req.Trace.StartSpan("batch_wait")
	g := b.groups[req.NS]
	if g == nil {
		g = &batchGroup{}
		b.groups[req.NS] = g
		ns := req.NS
		g.timer = time.AfterFunc(b.window, func() { b.flush(ns, g) })
	}
	g.calls = append(g.calls, c)
	b.mu.Unlock()
	return nil
}

// flush moves one group out of the batcher and onto the pool, retrying
// through transient queue-full (the jobs were already accepted with 202;
// shedding load is the job store's admission control, not the queue's).
func (b *batcher) flush(ns *devreg.Namespace, g *batchGroup) {
	b.mu.Lock()
	if b.groups[ns] != g {
		// Already flushed or swept by close.
		b.mu.Unlock()
		return
	}
	delete(b.groups, ns)
	calls := g.calls
	b.mu.Unlock()

	t := b.pool.batch(calls)
	for _, c := range calls {
		c.waitSpan.End()
		c.queueSpan = c.req.Trace.StartSpan("queue")
	}
	for {
		err := b.pool.enqueue(t)
		if err == nil {
			return
		}
		if err == ErrClosed {
			t.fail(ErrClosed)
			return
		}
		select {
		case <-b.pool.quit:
			t.fail(ErrClosed)
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close fails every unflushed submission with ErrClosed. Groups whose
// timer already entered flush are not in the map anymore and are handled
// by the flush/drain path.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	groups := b.groups
	b.groups = map[*devreg.Namespace]*batchGroup{}
	b.mu.Unlock()
	for _, g := range groups {
		g.timer.Stop()
		for _, c := range g.calls {
			c.done(nil, ErrClosed)
		}
	}
}
