// Package compilesvc is the training tier of the serving stack: the
// plan/execute compilation core (coverage planning, MST-ordered
// warm-started training through the namespace store's singleflight,
// Algorithm 3 schedule assembly) behind its own bounded worker pool.
//
// The routing tier (internal/server) reaches it only through Pool's
// methods: asynchronous jobs enter through Submit, where requests against
// the same namespace are batched for one shared resolveGroups pass; a
// synchronous request blocks on Do, which serves it as a batch of one;
// calibration rolls feed one item at a time through Recompile. Every
// request, sync or async, runs through the one executor, serve. Queue
// depth, in-flight work and the warm-seeding counter are read back
// through the same methods, so the HTTP layer never touches pool
// internals. Pool is the tier's one implementation; an interface over it
// (for a multi-process split across consistent-hashed training nodes)
// belongs with a second implementation.
package compilesvc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accqoc/internal/devreg"
	"accqoc/internal/precompile"
)

// Queue admission errors. The routing tier maps both to 503 (with a
// Retry-After hint); their messages are part of the served wire format.
var (
	// ErrQueueFull reports a full compile queue.
	ErrQueueFull = errors.New("compilation queue full")
	// ErrClosed reports a service that is shutting down (or has shut
	// down); it also answers tasks swept out of the queue by Close.
	ErrClosed = errors.New("server shutting down")
)

// Config assembles a Pool.
type Config struct {
	// Workers bounds concurrent compilations. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending tasks beyond the running ones; a full
	// queue answers ErrQueueFull. Default 64.
	QueueDepth int
	// BatchWindow is how long an async submission waits for same-
	// namespace company before its batch is flushed to the pool.
	// Default 2ms.
	BatchWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	return c
}

// task is one unit of worker-pool work: a batch of requests, one
// recompilation item of a calibration roll, or one speculative training
// of the prefetcher. A worker calls run; Close's final sweep calls fail
// instead for a task no worker picked up.
type task struct {
	run  func()
	fail func(error)
}

// Pool is the training tier's bounded worker pool. It is safe for
// concurrent use from handler goroutines, roll drivers, and shutdown
// paths.
type Pool struct {
	cfg   Config
	tasks chan *task
	quit  chan struct{}
	wg    sync.WaitGroup

	batcher *batcher

	inFlight   atomic.Int64
	warmSeeded atomic.Int64

	// closeMu orders enqueues against Close: an enqueue holds the read
	// lock, so once Close holds the write lock and sets closed, every
	// queued task predates the quit signal and the worker drain loop (or
	// Close's final sweep) is guaranteed to answer it.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

// New builds a pool and starts its workers.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:   cfg,
		tasks: make(chan *task, cfg.QueueDepth),
		quit:  make(chan struct{}),
	}
	p.batcher = newBatcher(p, cfg.BatchWindow)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// enqueue submits a task unless the pool is closed or the queue is full.
func (p *Pool) enqueue(t *task) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.tasks <- t:
		return nil
	default:
		return ErrQueueFull
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	run := func(t *task) {
		p.inFlight.Add(1)
		defer p.inFlight.Add(-1)
		t.run()
	}
	for {
		select {
		case t := <-p.tasks:
			run(t)
		case <-p.quit:
			// Drain whatever is already queued so no caller hangs.
			for {
				select {
				case t := <-p.tasks:
					run(t)
				default:
					return
				}
			}
		}
	}
}

// Do runs one request synchronously through the pool: a batch of one,
// enqueued at once with no batching window. It waits for a worker and
// returns the finished result, or fails fast with ErrQueueFull or
// ErrClosed before any work happens.
func (p *Pool) Do(req *Request) (*Result, error) {
	type answer struct {
		res *Result
		err error
	}
	ch := make(chan answer, 1)
	c := &call{req: req, done: func(res *Result, err error) { ch <- answer{res, err} }}
	c.queueSpan = req.Trace.StartSpan("queue")
	if err := p.enqueue(p.batch([]*call{c})); err != nil {
		return nil, err // the queue span is dropped unended: never queued
	}
	// Wait for the worker even if the caller's client goes away: the
	// training is already paid for and warms the shared library.
	a := <-ch
	return a.res, a.err
}

// Submit enqueues one request for asynchronous, batched execution.
// Concurrent submissions against the same namespace are batched within
// the configured window and resolved in one shared resolveGroups pass. At
// worker pickup, start is invoked first: returning false vetoes the
// request (it was canceled) and NO other callback runs — cleanup on veto
// belongs to start. Otherwise done is invoked exactly once with the
// result or error (ErrClosed when the pool shut down before the work
// ran). Submit itself returns ErrClosed when the pool is already closing;
// then neither callback runs.
func (p *Pool) Submit(req *Request, start func() bool, done func(*Result, error)) error {
	return p.batcher.add(req, start, done)
}

// Recompile runs one roll item on the pool, blocking until processed. It
// returns ErrQueueFull when the pool is busy (request traffic has
// priority) and ErrClosed during shutdown. The new store's singleflight
// arbitrates against request traffic: a key a serving-path miss already
// covered (or is covering) counts skipped.
func (p *Pool) Recompile(roll *devreg.Roll, it *devreg.RecompItem) error {
	return p.runOne(func() {
		out, iters, seeded := p.retrain(roll.New, it.Key, it.Unitary, func() *precompile.Entry { return it.Old })
		roll.Note(out == retrainSkipped, out == retrainFailed, seeded, iters)
	})
}

// runOne runs fn on a worker and blocks until it ran (nil) or the pool
// shut down first (ErrClosed); a full queue refuses it with ErrQueueFull.
func (p *Pool) runOne(fn func()) error {
	done := make(chan error, 1)
	t := &task{
		run:  func() { fn(); done <- nil },
		fail: func(err error) { done <- err },
	}
	if err := p.enqueue(t); err != nil {
		return err
	}
	return <-done
}

// QueueLen reports tasks waiting in the queue (not yet picked up).
func (p *Pool) QueueLen() int { return len(p.tasks) }

// QueueCap reports the queue bound.
func (p *Pool) QueueCap() int { return p.cfg.QueueDepth }

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.cfg.Workers }

// InFlight reports tasks currently executing on a worker.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// WarmSeeded totals trainings (serving and roll paths alike) that started
// from a similarity-admitted seed, across the pool's lifetime.
func (p *Pool) WarmSeeded() int64 { return p.warmSeeded.Load() }

// Close stops the pool after draining queued tasks: queued work runs,
// and unflushed async batches and tasks swept out of the queue are
// answered with ErrClosed (their done callbacks fail with it).
func (p *Pool) Close() {
	p.closeMu.Lock()
	p.closed = true
	p.closeMu.Unlock()
	// Fail async submissions still waiting in the batcher: their batch
	// would otherwise spin on a closed queue. Flushed batches already in
	// the channel are drained (and executed) by the workers below.
	p.batcher.close()
	p.closeOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
	// Fail anything that slipped into the queue between the workers'
	// drain sweep and their exit (possible only for tasks enqueued before
	// closed was set, so this sweep is the last).
	for {
		select {
		case t := <-p.tasks:
			t.fail(ErrClosed)
		default:
			return
		}
	}
}
