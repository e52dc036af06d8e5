package compilesvc

// This file is the extracted plan/execute core of the serving pipeline:
// Prepare, a stats-neutral coverage plan that MST-orders a request's
// cache misses (§V-C), singleflight training along the tree edges with
// warm-start seeds from the namespace's similarity index, and Algorithm 3
// latency assembly. It moved here verbatim from internal/server when the
// stack split into routing and training tiers; the only addition is the
// optional per-key outcome tally that lets a shared async-batch pass
// rebuild per-request counters afterwards.

import (
	"sort"
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
	"accqoc/internal/simgraph"
	"accqoc/internal/similarity"
)

// trainStep is one planned cold training: a unique group, its canonical
// target unitary, and its warm-start edge from the similarity MST.
type trainStep struct {
	// cold indexes the request's cold set; trained results are recorded
	// under it so MST children can find their parent's entry.
	cold    int
	uniq    *grouping.UniqueGroup
	unitary *cmat.Matrix
	// warmFrom is the MST parent's cold index, -1 when the group is
	// rooted at the identity (then the seed index supplies the anchor).
	warmFrom int
	// warmDist is the MST edge weight to warmFrom.
	warmDist float64
}

// planColdSteps orders a request's uncovered unique groups for training:
// per size class, a Prim MST over the similarity graph (identity-rooted,
// §V-C) fixes both the order and the warm-start edges, exactly as the
// batch pre-compilation does — but over the live miss set of one
// request. Singleton classes train directly. Classes are planned in
// ascending size for determinism.
func planColdSteps(cold []*grouping.UniqueGroup, fn similarity.Func) ([]trainStep, error) {
	if len(cold) == 0 {
		return nil, nil
	}
	us := make([]*cmat.Matrix, len(cold))
	bySize := map[int][]int{}
	for i, u := range cold {
		m, err := u.Group.Unitary()
		if err != nil {
			return nil, err
		}
		us[i] = precompile.CanonicalUnitary(m)
		bySize[u.NumQubits] = append(bySize[u.NumQubits], i)
	}
	sizes := make([]int, 0, len(bySize))
	for sz := range bySize {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)

	steps := make([]trainStep, 0, len(cold))
	for _, sz := range sizes {
		idxs := bySize[sz]
		if len(idxs) == 1 {
			i := idxs[0]
			steps = append(steps, trainStep{cold: i, uniq: cold[i], unitary: us[i], warmFrom: -1})
			continue
		}
		classUs := make([]*cmat.Matrix, len(idxs))
		for j, i := range idxs {
			classUs[j] = us[i]
		}
		g, err := simgraph.Build(classUs, fn)
		if err != nil {
			return nil, err
		}
		mst, err := g.PrimMST(0)
		if err != nil {
			return nil, err
		}
		for _, st := range mst.CompilationSequence() {
			i := idxs[st.Group]
			warm := -1
			if st.WarmFrom >= 0 {
				warm = idxs[st.WarmFrom]
			}
			steps = append(steps, trainStep{
				cold: i, uniq: cold[i], unitary: us[i],
				warmFrom: warm, warmDist: st.Distance,
			})
		}
	}
	return steps, nil
}

// seedFor picks the warm start for one cold step: the MST parent when it
// trained earlier in this request (its pulse admitted under
// WarmThreshold, its latency always transferring as the binary-search
// hint), otherwise the nearest covered entry from the namespace's seed
// index (which, during a calibration roll, chains to the previous
// epoch's). Called only from inside the training closure, so
// planned-but-hit groups never pay for a lookup.
func seedFor(ns *devreg.Namespace, fn similarity.Func, st trainStep, trained []*precompile.Entry) (*precompile.Entry, float64) {
	if st.warmFrom >= 0 {
		if prev := trained[st.warmFrom]; prev != nil {
			seed := &precompile.Entry{NumQubits: st.uniq.NumQubits, LatencyNs: prev.LatencyNs}
			if st.warmDist <= similarity.WarmThreshold(fn, st.unitary.Rows) {
				seed.Pulse = prev.Pulse
			}
			return seed, st.warmDist
		}
	}
	if sd, ok := ns.Seeds.Nearest(st.unitary, st.uniq.NumQubits); ok {
		return &precompile.Entry{
			NumQubits: st.uniq.NumQubits,
			Pulse:     sd.Pulse,
			LatencyNs: sd.LatencyNs,
		}, sd.Distance
	}
	return nil, 0
}

// keyOutcome records how one unique key resolved during a shared pass,
// so per-request counters can be rebuilt from a batch's union resolve.
type keyOutcome struct {
	outcome    libstore.Outcome
	failed     bool
	iterations int
	seeded     bool
	seedDist   float64
}

// resolve fetches or trains one unique group through the namespace
// store's singleflight and updates the response counters. plan, when
// non-nil, supplies the warm-start seed, its distance, and the group's
// canonical target unitary; it is consulted only if this call actually
// executes the training (a hit or a joined in-flight training never
// evaluates it). A returned unitary pre-indexes the freshly trained entry
// under its target so the store hook's propagation is skipped (the index
// dedups on pulse identity). tally, when non-nil, additionally records
// the per-key outcome for batch accounting.
func (p *Pool) resolve(ns *devreg.Namespace, resp *CompileResponse, entries map[string]*precompile.Entry, u *grouping.UniqueGroup, cfg precompile.Config, plan func() (*precompile.Entry, float64, *cmat.Matrix), tr *obs.Trace, tally map[string]*keyOutcome) *precompile.Entry {
	var seedDist float64
	var seeded bool
	sp := tr.StartSpan("train")
	e, outcome, err := ns.Store.GetOrTrain(u.Key, func() (*precompile.Entry, error) {
		var seed *precompile.Entry
		var unitary *cmat.Matrix
		if plan != nil {
			var d float64
			seed, d, unitary = plan()
			if seed != nil && seed.Pulse != nil {
				seeded, seedDist = true, d
			}
		}
		trained, terr := precompile.TrainGroup(u, cfg, seed)
		if terr == nil && ns.Seeds != nil && unitary != nil {
			ns.Seeds.InsertWithUnitary(trained, unitary)
		}
		return trained, terr
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
				p.warmSeeded.Add(1)
			}
		}
		if sp != nil {
			sp.Key = u.Key
			sp.Outcome = outcomeString(outcome)
			sp.Coalesced = outcome == libstore.OutcomeJoined
			if outcome == libstore.OutcomeTrained && err == nil {
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
	if tally != nil {
		ko := &keyOutcome{outcome: outcome, failed: err != nil}
		if outcome == libstore.OutcomeTrained && err == nil {
			ko.iterations = e.Iterations
			ko.seeded = seeded
			ko.seedDist = seedDist
		}
		tally[u.Key] = ko
	}
	if err != nil {
		// Unreachable within the bracket: price it gate-based below.
		resp.FailedGroups++
		return nil
	}
	entries[u.Key] = e
	return e
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
// concurrent requests (singleflight), MST-ordered with warm-start seeds
// when the seed index is on. It fills the response's coverage, training
// and seeding counters and returns the resolved entries by key. tally,
// when non-nil, records per-key outcomes for batch accounting.
func (p *Pool) resolveGroups(ns *devreg.Namespace, resp *CompileResponse, uniq []*grouping.UniqueGroup, tr *obs.Trace, tally map[string]*keyOutcome) map[string]*precompile.Entry {
	entries := make(map[string]*precompile.Entry, len(uniq))
	cfg := ns.Comp.Options().Precompile
	simFn := ns.SimilarityFn()
	switch {
	case ns.Seeds == nil:
		// Index disabled: resolve in deduplication order with cold
		// random-init trainings — the pre-index serving path, preserved
		// byte for byte.
		for _, u := range uniq {
			p.resolve(ns, resp, entries, u, cfg, nil, tr, tally)
		}
	default:
		// Plan: partition into covered and cold without touching
		// counters or LRU order, then MST-order the cold set.
		psp := tr.StartSpan("plan")
		var covered, cold []*grouping.UniqueGroup
		for _, u := range uniq {
			if ns.Store.Contains(u.Key) {
				covered = append(covered, u)
			} else {
				cold = append(cold, u)
			}
		}
		steps, perr := planColdSteps(cold, simFn)
		psp.End()
		if perr != nil {
			// Planning must never fail a request harder than the legacy
			// path would: the same defect (an unbuildable group unitary,
			// a broken similarity function) surfaces inside TrainGroup
			// on the legacy path, where the group is priced gate-based
			// and counted in failed_groups. Fall back to exactly that.
			for _, u := range uniq {
				p.resolve(ns, resp, entries, u, cfg, nil, tr, tally)
			}
			break
		}
		// Execute: covered keys resolve as hits first, then the cold
		// set trains along the tree edges; every trained group becomes
		// a seed candidate for its MST children later in this request.
		for _, u := range covered {
			u := u
			// A hit never evaluates the closure; it exists for the rare
			// key evicted between plan and execute, which then trains as
			// an identity-rooted step (index-seeded) instead of cold.
			p.resolve(ns, resp, entries, u, cfg, func() (*precompile.Entry, float64, *cmat.Matrix) {
				m, uerr := u.Group.Unitary()
				if uerr != nil {
					return nil, 0, nil
				}
				cu := precompile.CanonicalUnitary(m)
				seed, d := seedFor(ns, simFn, trainStep{uniq: u, unitary: cu, warmFrom: -1}, nil)
				return seed, d, cu
			}, tr, tally)
		}
		trained := make([]*precompile.Entry, len(cold))
		for _, st := range steps {
			st := st
			trained[st.cold] = p.resolve(ns, resp, entries, st.uniq, cfg,
				func() (*precompile.Entry, float64, *cmat.Matrix) {
					seed, d := seedFor(ns, simFn, st, trained)
					return seed, d, st.unitary
				}, tr, tally)
		}
	}
	if resp.WarmSeeded > 0 {
		resp.SeedDistance = resp.seedDistanceSum / float64(resp.WarmSeeded)
	}
	if resp.TotalGroups > 0 {
		resp.CoverageRate = float64(resp.CoveredGroups) / float64(resp.TotalGroups)
	} else {
		resp.CoverageRate = 1
	}
	resp.WarmServed = resp.UncoveredUnique == 0
	if ns.Usage != nil && len(uniq) > 0 {
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
	return entries
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
		if ns.Seeds != nil {
			// Pre-index under the known target so the store hook skips
			// its propagation (same zero-propagation invariant as the
			// serving path).
			ns.Seeds.InsertWithUnitary(e, it.Unitary)
		}
		return e, terr
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
