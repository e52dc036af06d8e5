package compilesvc

// This file is the plan/execute core of the serving pipeline: Prepare, a
// stats-neutral coverage plan that MST-orders a request's cache misses
// with precompile.Plan (§V-C), precompile.Execute training along the tree
// edges through the namespace store's singleflight with warm-start seeds
// from its similarity index, and Algorithm 3 latency assembly. An
// optional per-key outcome tally lets a shared async-batch pass rebuild
// per-request counters afterwards.

import (
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/devreg"
	"accqoc/internal/grouping"
	"accqoc/internal/latency"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
)

// keyOutcome records how one unique key resolved during a shared pass,
// so per-request counters can be rebuilt from a batch's union resolve.
type keyOutcome struct {
	outcome    libstore.Outcome
	failed     bool
	iterations int
	seeded     bool
	seedDist   float64
}

// resolver is the serving path's Store for the executor: the namespace
// store's singleflight and seed index, plus one resolve pass's response
// counters, train spans and batch tally.
type resolver struct {
	p       *Pool
	ns      *devreg.Namespace
	resp    *CompileResponse
	entries map[string]*precompile.Entry
	tr      *obs.Trace
	// tally, when non-nil, records per-key outcomes for batch accounting.
	tally map[string]*keyOutcome
}

// GetOrTrain fetches or trains one unique group through the namespace
// store's singleflight and updates the response counters. train runs only
// if this call actually executes the training (a hit or a joined
// in-flight training never evaluates it). A fresh entry is pre-indexed
// under its training target, so the store hook's propagation is skipped
// (the index dedups on pulse identity).
func (r *resolver) GetOrTrain(u *grouping.UniqueGroup, train func() (*precompile.Trained, error)) (*precompile.Entry, error) {
	var seedDist float64
	var seeded bool
	resp := r.resp
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
	if outcome == libstore.OutcomeHit {
		resp.CoveredGroups += u.Count
		// A hit span is never ended: warm requests would otherwise bloat
		// every trace with hundreds of no-op lookups.
	} else {
		// Trained here or joined another request's in-flight training:
		// either way this request waited on GRAPE for the group.
		resp.UncoveredUnique++
		if outcome == libstore.OutcomeTrained && err == nil {
			resp.TrainingIterations += e.Iterations
			if seeded {
				resp.WarmSeeded++
				resp.seedDistanceSum += seedDist
				r.p.warmSeeded.Add(1)
			}
		}
		if sp != nil {
			sp.Key = u.Key
			sp.Outcome = outcomeString(outcome)
			sp.Coalesced = outcome == libstore.OutcomeJoined
			if err != nil {
				// An unreachable bracket or a recovered train panic.
				sp.Outcome = "failed"
				sp.Error = err.Error()
			} else if outcome == libstore.OutcomeTrained {
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
	}
	if r.tally != nil {
		ko := &keyOutcome{outcome: outcome, failed: err != nil}
		if outcome == libstore.OutcomeTrained && err == nil {
			ko.iterations = e.Iterations
			ko.seeded = seeded
			ko.seedDist = seedDist
		}
		r.tally[u.Key] = ko
	}
	if err != nil {
		// Unreachable within the bracket: price it gate-based below.
		resp.FailedGroups++
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

// compile runs the serving-side pipeline for one namespace in a
// plan/execute shape: Prepare, a stats-neutral coverage plan that
// MST-orders the request's cache misses, singleflight training along the
// tree edges with warm-start seeds, and Algorithm 3 latency assembly.
func (p *Pool) compile(prog *circuit.Circuit, ns *devreg.Namespace, tr *obs.Trace) (*CompileResponse, error) {
	begin := time.Now()
	sp := tr.StartSpan("prepare")
	prep, err := ns.Comp.Prepare(prog)
	if err != nil {
		return nil, err
	}
	gr := prep.Grouping
	keys, err := precompile.Keys(gr)
	if err != nil {
		return nil, err
	}
	sp.End()

	resp := &CompileResponse{
		Qubits:      prog.NumQubits,
		Gates:       prog.GateCount(),
		Epoch:       ns.Epoch,
		TotalGroups: len(gr.Groups),
	}

	// Deduplicate occurrences against the precomputed keys, then resolve
	// every unique group: a warm key is a store hit; a cold key trains
	// exactly once across all concurrent requests (singleflight).
	uniq := grouping.DeduplicateKeyed(gr.Groups, keys)
	entries := p.resolveGroups(ns, resp, uniq, tr, nil)

	sp = tr.StartSpan("latency")
	dev := ns.Comp.Options().Device
	overall, err := latency.OverallGroups(gr, func(i int) (float64, error) {
		if e, ok := entries[keys[i]]; ok {
			return e.LatencyNs, nil
		}
		return accqoc.GateFallbackNs(gr.Groups[i], dev.Calibration), nil
	})
	if err != nil {
		return nil, err
	}
	finalizeResponse(resp, prep.Physical, dev, overall, begin)
	sp.End()
	return resp, nil
}

// resolveGroups is the shared resolution core of the compile and circuit
// paths: every unique group of a request resolves against the namespace
// store — a warm key is a hit, a cold key trains exactly once across all
// concurrent requests (singleflight), in MST order with warm-start seeds.
// It fills the response's coverage, training and seeding counters and
// returns the resolved entries by key. tally, when non-nil, records
// per-key outcomes for batch accounting.
func (p *Pool) resolveGroups(ns *devreg.Namespace, resp *CompileResponse, uniq []*grouping.UniqueGroup, tr *obs.Trace, tally map[string]*keyOutcome) map[string]*precompile.Entry {
	r := &resolver{p: p, ns: ns, resp: resp, entries: make(map[string]*precompile.Entry, len(uniq)), tr: tr, tally: tally}
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
	// becomes a seed candidate for its MST children later in this request.
	precompile.Execute(rootedSteps(covered), cfg, r)
	precompile.Execute(steps, cfg, r)
	if resp.WarmSeeded > 0 {
		resp.SeedDistance = resp.seedDistanceSum / float64(resp.WarmSeeded)
	}
	if resp.TotalGroups > 0 {
		resp.CoverageRate = float64(resp.CoveredGroups) / float64(resp.TotalGroups)
	} else {
		resp.CoverageRate = 1
	}
	resp.WarmServed = resp.UncoveredUnique == 0
	if len(uniq) > 0 {
		// File the request window with the cost ledger: resolveGroups is
		// the single chokepoint of the compile, circuit, and async-batch
		// paths, so a batch's shared pass records its union as one
		// co-occurrence window. Pure observation — no decision downstream
		// of this call reads the ledger. The ledger span shows its share
		// of the request in /debug/requests.
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

// recompileOne executes one cross-epoch recompilation item on a worker:
// re-train the old epoch's entry toward its cached target unitary under
// the new epoch's physics, seeded by the old pulse at its native duration.
// The new store's singleflight arbitrates against request traffic — if a
// serving-path miss already covered (or is covering) the key, the item is
// counted skipped rather than trained twice.
func (p *Pool) recompileOne(roll *devreg.Roll, it *devreg.RecompItem) {
	ns := roll.New
	if ns.Store.Contains(it.Key) {
		roll.Note(true, false, false, 0)
		return
	}
	seeded := it.Old.Pulse != nil
	var iters int
	_, outcome, err := ns.Store.GetOrTrain(it.Key, func() (*precompile.Entry, error) {
		e, terr := precompile.RetrainEntry(it.Old, it.Unitary, ns.Comp.Options().Precompile)
		if terr != nil {
			return nil, terr
		}
		iters = e.Iterations
		// Pre-index under the known target so the store hook skips its
		// propagation (same zero-propagation invariant as the serving
		// path).
		ns.Seeds.InsertWithUnitary(e, it.Unitary)
		return e, nil
	})
	switch {
	case outcome == libstore.OutcomeTrained && err == nil:
		roll.Note(false, false, seeded, iters)
		if seeded {
			p.warmSeeded.Add(1)
		}
	case outcome == libstore.OutcomeTrained:
		roll.Note(false, true, false, iters)
	default:
		// Hit, or joined a concurrent request's training (whatever its
		// outcome): the racing miss owns that work — the roll item is
		// skipped, not failed.
		roll.Note(true, false, false, 0)
	}
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
