package compilesvc

// This file is the training tier's one request executor and the
// plan/execute core under it. serve plans every request of a task (a
// synchronous request is a task of one), resolveGroups resolves the union
// of their unique groups once — a stats-neutral coverage plan that
// MST-orders the cache misses with precompile.Plan (§V-C), then
// precompile.Execute training along the tree edges through the namespace
// store's singleflight with warm-start seeds from its similarity index —
// and each request finishes against its own plan with Algorithm 3
// latency assembly. retrain is the background training unit of
// calibration rolls and the prefetcher.

import (
	"errors"
	"fmt"
	"time"

	"accqoc"
	"accqoc/internal/cmat"
	"accqoc/internal/devreg"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
)

// serve runs one task's calls, all against one namespace: veto canceled
// requests, plan each survivor, resolve the union of their unique groups
// in one shared pass, then finish each request against its own plan.
func (p *Pool) serve(calls []*call) {
	live := calls[:0:0]
	for _, c := range calls {
		c.queueSpan.End()
		if c.begin.IsZero() {
			c.begin = time.Now()
		}
		// A vetoed call (canceled before pickup) gets no callbacks; the
		// submitter's start hook owns its cleanup.
		if c.start == nil || c.start() {
			live = append(live, c)
		}
	}
	type job struct {
		c    *call
		plan *accqoc.GroupPlan
		resp *CompileResponse
	}
	var jobs []job
	var union []*grouping.UniqueGroup
	owners := map[string][]owner{}
	for _, c := range live {
		sp := c.req.Trace.StartSpan("prepare")
		plan, err := planRequest(c.req)
		if err != nil {
			if sp != nil {
				sp.Error = err.Error()
			}
			sp.End()
			c.done(nil, err)
			continue
		}
		sp.End()
		resp := &CompileResponse{
			Qubits:      c.req.Prog.NumQubits,
			Gates:       c.req.Prog.GateCount(),
			Epoch:       c.req.NS.Epoch,
			TotalGroups: len(plan.Grouping.Groups),
		}
		jobs = append(jobs, job{c, plan, resp})
		for _, u := range plan.Unique {
			if owners[u.Key] == nil {
				union = append(union, u)
			}
			owners[u.Key] = append(owners[u.Key], owner{resp, u.Count})
		}
	}
	if len(jobs) == 0 {
		return
	}
	// All calls of a task share one namespace by construction. Plan and
	// train spans land on the first request's trace: it leads the batch.
	entries := p.resolveGroups(jobs[0].c.req.NS, union, owners, jobs[0].c.req.Trace)
	for _, j := range jobs {
		j.c.done(finish(j.c, j.plan, j.resp, entries))
	}
}

// ErrPlanPanic tags the error a request gets when planning it panicked.
var ErrPlanPanic = errors.New("compilesvc: planning panicked")

// planRequest runs the request's front end, recovering a panic into an
// ErrPlanPanic error for that request alone: a malformed program must not
// take the worker, and the process with it, down.
func planRequest(req *Request) (plan *accqoc.GroupPlan, err error) {
	defer func() {
		if v := recover(); v != nil {
			plan, err = nil, fmt.Errorf("%w: %v", ErrPlanPanic, v)
		}
	}()
	return req.NS.Plan(req.Prog)
}

// finish completes one request against the resolved entries: the
// scheduled pulse program for a circuit request, Algorithm 3 latency
// assembly for a plain compile.
func finish(c *call, plan *accqoc.GroupPlan, resp *CompileResponse, entries map[string]*precompile.Entry) (*Result, error) {
	if c.req.Circuit {
		circ, err := assembleCircuit(c, plan, resp, entries)
		if err != nil {
			return nil, err
		}
		return &Result{Circ: circ}, nil
	}
	sp := c.req.Trace.StartSpan("latency")
	dev := c.req.NS.Comp.Options().Device
	overall, err := plan.Makespan(entries, dev.Calibration)
	if err != nil {
		return nil, err
	}
	finalizeResponse(resp, plan.DAG, dev, overall, c.begin)
	sp.End()
	return &Result{Resp: resp}, nil
}

// owner is one request's stake in a unique key: the response the key's
// outcome counts into, and the key's occurrence count in that request.
type owner struct {
	resp  *CompileResponse
	count int
}

// resolver is the serving path's Store for the executor: the namespace
// store's singleflight and seed index, plus the owners each key's outcome
// counts into and one resolve pass's train spans.
type resolver struct {
	p       *Pool
	ns      *devreg.Namespace
	owners  map[string][]owner
	entries map[string]*precompile.Entry
	tr      *obs.Trace
}

// GetOrTrain fetches or trains one unique group through the namespace
// store's singleflight and counts the outcome into every request that
// owns the key: the one site that writes a response's coverage, failure,
// training and seeding counters. train runs only if this call actually
// executes the training (a hit or a joined in-flight training never
// evaluates it). A fresh entry is pre-indexed under its training target,
// so the store hook's propagation is skipped (the index dedups on pulse
// identity).
func (r *resolver) GetOrTrain(u *grouping.UniqueGroup, train func() (*precompile.Trained, error)) (*precompile.Entry, error) {
	var seedDist float64
	var seeded bool
	sp := r.tr.StartSpan("train")
	e, outcome, err := r.ns.Store.GetOrTrain(u.Key, func() (*precompile.Entry, error) {
		t, terr := train()
		if terr != nil {
			return nil, terr
		}
		r.ns.Seeds.InsertWithUnitary(t.Entry, t.Target)
		seeded, seedDist = t.Entry.Seeded, t.SeedDistance
		return t.Entry, nil
	})
	trained := outcome == libstore.OutcomeTrained && err == nil
	if trained && seeded {
		r.p.warmSeeded.Add(1)
	}
	for _, o := range r.owners[u.Key] {
		resp := o.resp
		if outcome == libstore.OutcomeHit {
			resp.CoveredGroups += o.count
			continue
		}
		// Trained here or joined another request's in-flight training:
		// either way the request waited on GRAPE for the group.
		resp.UncoveredUnique++
		switch {
		case err != nil:
			// Unreachable within the bracket: priced gate-based.
			resp.FailedGroups++
		case trained:
			resp.TrainingIterations += e.Iterations
			if seeded {
				resp.WarmSeeded++
				resp.seedDistanceSum += seedDist
			}
		}
	}
	// A hit span is never ended: warm requests would otherwise bloat
	// every trace with hundreds of no-op lookups.
	if outcome != libstore.OutcomeHit && sp != nil {
		sp.Key = u.Key
		sp.Outcome = outcomeString(outcome)
		sp.Coalesced = outcome == libstore.OutcomeJoined
		if err != nil {
			// An unreachable bracket or a recovered train panic.
			sp.Outcome = "failed"
			sp.Error = err.Error()
		} else if trained {
			sp.Iterations = e.Iterations
			sp.Infidelity = e.Infidelity
			if seeded {
				sp.SeedDistance = seedDist
			} else {
				sp.SeedDistance = -1 // trained cold
			}
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	r.entries[u.Key] = e
	return e, nil
}

// Nearest looks up the closest covered entry in the namespace's seed
// index, which during a calibration roll chains to the previous epoch's.
func (r *resolver) Nearest(u *cmat.Matrix, numQubits int) (*precompile.Entry, float64, bool) {
	sd, ok := r.ns.Seeds.Nearest(u, numQubits)
	if !ok {
		return nil, 0, false
	}
	return &precompile.Entry{Key: sd.Key, NumQubits: numQubits, Pulse: sd.Pulse, LatencyNs: sd.LatencyNs}, sd.Distance, true
}

// rootedSteps makes each group an identity-rooted step whose target is
// built only if it trains.
func rootedSteps(groups []*grouping.UniqueGroup) []precompile.Step {
	steps := make([]precompile.Step, len(groups))
	for i, u := range groups {
		steps[i] = precompile.Step{Group: u, WarmFrom: -1}
	}
	return steps
}

// resolveGroups resolves every unique group of a task against the
// namespace store — a warm key is a hit, a cold key trains exactly once
// across all concurrent requests (singleflight), in MST order with
// warm-start seeds — counting each key's outcome into its owners, and
// returns the resolved entries by key.
func (p *Pool) resolveGroups(ns *devreg.Namespace, uniq []*grouping.UniqueGroup, owners map[string][]owner, tr *obs.Trace) map[string]*precompile.Entry {
	r := &resolver{p: p, ns: ns, owners: owners, entries: make(map[string]*precompile.Entry, len(uniq)), tr: tr}
	cfg := ns.Comp.Options().Precompile
	// Plan: partition into covered and cold without touching counters or
	// LRU order, then MST-order the cold set.
	psp := tr.StartSpan("plan")
	var covered, cold []*grouping.UniqueGroup
	for _, u := range uniq {
		if ns.Store.Contains(u.Key) {
			covered = append(covered, u)
		} else {
			cold = append(cold, u)
		}
	}
	steps, perr := precompile.Plan(cold, ns.SimilarityFn())
	if perr != nil {
		// Planning must never fail a request: the same defect (a broken
		// similarity function) would otherwise surface inside training,
		// where the group is priced gate-based and counted in
		// failed_groups. Train the cold set identity-rooted instead.
		steps = rootedSteps(cold)
	}
	psp.End()
	// Execute: covered keys resolve as hits first — a key evicted between
	// plan and execute trains as an identity-rooted step (index-seeded) —
	// then the cold set trains along the tree edges; every trained group
	// becomes a seed candidate for its MST children later in this pass.
	precompile.Execute(rootedSteps(covered), cfg, r)
	precompile.Execute(steps, cfg, r)
	if len(uniq) > 0 {
		// File the task's union with the cost ledger as one co-occurrence
		// window: resolveGroups is the single chokepoint of every request.
		// Pure observation — no decision downstream of this call reads
		// the ledger. The ledger span shows its share of the request in
		// /debug/requests.
		lsp := tr.StartSpan("ledger")
		keys := make([]string, len(uniq))
		for i, u := range uniq {
			keys[i] = u.Key
		}
		ns.Usage.RecordRequest(keys)
		lsp.End()
	}
	return r.entries
}

// retrainOutcome is how one background training item resolved.
type retrainOutcome int

const (
	// retrainAbandoned: a speculation yielded to request traffic untried.
	retrainAbandoned retrainOutcome = iota
	// retrainSkipped: the key was covered, or a racing request's training
	// covers it, by execution time.
	retrainSkipped
	retrainTrained
	retrainFailed
)

// retrain is the background training unit of calibration rolls and the
// prefetcher: unless key is covered, train it toward target through the
// namespace store's singleflight, starting from the entry seed returns
// (its pulse, when set, warm-starts the training; its latency hints the
// duration search). seed runs inside the training closure, so a skipped
// key never pays for it. A hit or a joined training counts skipped: the
// racing request owns that work. retrain reports the outcome, the
// training's iterations and, for a finished training, whether it was
// seeded.
func (p *Pool) retrain(ns *devreg.Namespace, key string, target *cmat.Matrix, seed func() *precompile.Entry) (out retrainOutcome, iters int, seeded bool) {
	if ns.Store.Contains(key) {
		return retrainSkipped, 0, false
	}
	_, outcome, err := ns.Store.GetOrTrain(key, func() (*precompile.Entry, error) {
		s := seed()
		seeded = s.Pulse != nil
		e, terr := precompile.RetrainEntry(s, target, ns.Comp.Options().Precompile)
		if terr != nil {
			return nil, terr
		}
		iters = e.Iterations
		// Pre-index under the known target so the store hook skips its
		// propagation, as on the serving path.
		ns.Seeds.InsertWithUnitary(e, target)
		return e, nil
	})
	switch {
	case outcome != libstore.OutcomeTrained:
		return retrainSkipped, 0, false
	case err != nil:
		return retrainFailed, iters, false
	}
	if seeded {
		p.warmSeeded.Add(1)
	}
	return retrainTrained, iters, seeded
}

// outcomeString names a store outcome for trace spans.
func outcomeString(o libstore.Outcome) string {
	switch o {
	case libstore.OutcomeTrained:
		return "trained"
	case libstore.OutcomeJoined:
		return "joined"
	default:
		return "hit"
	}
}
