package precompile

import (
	"math"
	"sort"
	"sync"
	"time"

	"accqoc/internal/grouping"
	"accqoc/internal/partition"
)

// ParallelBuildResult extends BuildStats with the worker-level accounting
// of §V-D.
type ParallelBuildResult struct {
	Library *Library
	Stats   *BuildStats
	// Workers is the worker count used.
	Workers int
	// PartMakespan is the predicted critical path (max part weight) from
	// the balanced MST partition, in estimated iterations.
	PartMakespan float64
	// SerialWeight is the summed estimated iterations (1-worker cost).
	SerialWeight float64
}

// ParallelBuild trains a group category on k workers following §V-D: per
// size class the planned MST is balance-partitioned into k connected
// sub-trees (METIS's role), each worker executes its sub-tree in Prim
// order, and a step whose MST parent landed on another worker is rooted
// at the identity — the "soft dependency" the paper exploits ("we can
// always train a group starting from identity matrix").
func ParallelBuild(uniq []*grouping.UniqueGroup, cfg Config, workers int) (*ParallelBuildResult, error) {
	cfg = cfg.withDefaults()
	if workers < 1 {
		workers = 1
	}
	if workers > 1 && cfg.Grape.Parallel == 0 {
		// Group-level parallelism already saturates the cores; per-segment
		// workers inside each GRAPE evaluation would only oversubscribe.
		cfg.Grape.Parallel = -1
	}
	out := &ParallelBuildResult{
		Library: NewLibrary(),
		Stats:   &BuildStats{},
		Workers: workers,
	}
	start := time.Now()
	steps, err := Plan(uniq, cfg.Similarity)
	if err != nil {
		return nil, err
	}
	// The partition tree numbers a class's vertices by input order (vertex
	// 0 is the identity), as the MST over that class does.
	vertex := make(map[*grouping.UniqueGroup]int, len(uniq))
	perSize := map[int]int{}
	for _, u := range uniq {
		perSize[u.NumQubits]++
		vertex[u] = perSize[u.NumQubits]
	}
	store := &mapStore{lib: out.Library}
	for lo := 0; lo < len(steps); {
		hi := lo + 1
		for hi < len(steps) && steps[hi].Group.NumQubits == steps[lo].Group.NumQubits {
			hi++
		}
		parts, perr := out.partition(steps[lo:hi], lo, vertex, workers)
		if perr != nil {
			return nil, perr
		}
		entries := make([][]*Entry, len(parts))
		var wg sync.WaitGroup
		for i, part := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				entries[i] = Execute(part, cfg, store)
			}()
		}
		wg.Wait()
		for i, part := range parts {
			out.Stats.add(part, entries[i])
		}
		lo = hi
	}
	out.Stats.Elapsed = time.Since(start)
	return out, nil
}

// partition splits one size class's planned steps into balanced connected
// parts (§V-D) and accounts their weights; base is the class's plan
// offset, so the class's MST edges are WarmFrom-base. Node weights
// estimate training cost: warm starts get cheaper with similarity (base +
// slope·distance), an identity-rooted step trains cold. Each part keeps
// the plan's Prim order; an MST edge into another part becomes an
// identity root.
func (out *ParallelBuildResult) partition(class []Step, base int, vertex map[*grouping.UniqueGroup]int, workers int) ([][]Step, error) {
	const (
		baseIters = 40.0
		slope     = 400.0
		coldIters = 300.0
	)
	parent := make([]int, len(class)+1)
	weights := make([]float64, len(class)+1)
	parent[0] = -1
	for _, st := range class {
		v := vertex[st.Group]
		if st.WarmFrom < 0 {
			weights[v] = coldIters
		} else {
			parent[v] = vertex[class[st.WarmFrom-base].Group]
			weights[v] = baseIters + slope*st.Distance
		}
		out.SerialWeight += weights[v]
	}
	tree, err := partition.NewTree(parent, weights)
	if err != nil {
		return nil, err
	}
	cut, err := partition.Balanced(tree, workers)
	if err != nil {
		return nil, err
	}
	out.PartMakespan = math.Max(out.PartMakespan, cut.Makespan)
	byPart := map[int][]Step{}
	at := make([]int, len(class)) // class position → index within its part
	for i, st := range class {
		p := cut.Part[vertex[st.Group]]
		w := st.WarmFrom - base
		st.WarmFrom = -1
		if w >= 0 && cut.Part[vertex[class[w].Group]] == p {
			st.WarmFrom = at[w]
		}
		at[i] = len(byPart[p])
		byPart[p] = append(byPart[p], st)
	}
	ids := make([]int, 0, len(byPart))
	for id := range byPart {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([][]Step, len(ids))
	for i, id := range ids {
		parts[i] = byPart[id]
	}
	return parts, nil
}
