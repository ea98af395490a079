package core

import (
	"context"
	"runtime/pprof"
	"sort"

	"specabsint/internal/bytecode"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
	"specabsint/internal/par"
)

// The per-set partitioned fixpoint exploits the set-locality of the LRU
// domain: an access only ever ages blocks competing for its own cache set
// (Fig. 4), and joins are pointwise (Fig. 5), so the analysis of disjoint
// groups of cache sets never exchanges information — with two exceptions
// that the grouping below makes explicit:
//
//  1. an access whose candidate blocks span several sets couples those sets
//     (they must be classified against one coherent state), and
//  2. §6.2's dynamic depth bounding reads the classification of the
//     branch-slice loads — state local to those loads' sets — but the
//     resulting speculation budget steers lane propagation everywhere.
//
// (1) is handled by union-find over each access's candidate sets; (2) by
// merging every branch-slice load's component into one "depth group" that
// runs first and hands its converged depths to the others (see depthOracle).
// Each group's fixpoint is deterministic and owns a disjoint slice of the
// accesses, so the stitched result is identical at any worker count, and —
// by construction — identical to the dense single-fixpoint engine.

// setPartition is the grouping of cache sets into independent analyses.
type setPartition struct {
	groups     [][]int // ascending sets per group, ordered by smallest set
	depthGroup int     // index of the group owning the branch-slice loads, -1 if none
}

// unionFind is a plain path-halving union-find over cache-set ids.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf[rb] = ra
	}
}

// unionAccess merges the cache sets an access's candidate blocks fall into.
func unionAccess(uf unionFind, l *layout.Layout, acc cache.Access) {
	numSets := l.Config.NumSets
	n := acc.Count
	if n > numSets {
		n = numSets // candidates wrap around the whole set space
	}
	first := l.SetOf(acc.First)
	for i := 1; i < n; i++ {
		uf.union(first, l.SetOf(acc.First+layout.BlockID(i)))
	}
}

// partitionSets groups the cache sets so that every access (architectural
// and wrong-path) is wholly owned by one group, and — when dynamic depth
// bounding is live — all branch-slice loads share a single group. Sets no
// access ever touches are dropped: no transfer writes them, so their state
// entries stay zero in every engine, dense or partitioned.
func partitionSets(prog *ir.Program, l *layout.Layout, opts Options, access, accessSpec map[int]cache.Access) setPartition {
	numSets := l.Config.NumSets
	uf := newUnionFind(numSets)
	touched := make([]bool, numSets)
	touch := func(acc cache.Access) {
		unionAccess(uf, l, acc)
		n := acc.Count
		if n > numSets {
			n = numSets
		}
		for i := 0; i < n; i++ {
			touched[l.SetOf(acc.First+layout.BlockID(i))] = true
		}
	}
	for _, acc := range access {
		touch(acc)
	}
	for _, acc := range accessSpec {
		touch(acc)
	}

	// Merge the components of all branch-slice loads: their classification
	// decides speculation depths for every group, so one group must own the
	// complete picture.
	depthRoot := -1
	if opts.Speculative && opts.DynamicDepthBounding {
		for _, b := range prog.Blocks {
			t := b.Terminator()
			// Resolved branches spawn no colors, so their slice loads impose
			// no cross-group depth dependence.
			if t == nil || t.Op != ir.OpCondBr || t.Resolved {
				continue
			}
			sliceLoads, resolved := branchSlice(b)
			if !resolved {
				continue // depth is statically b_m, no state dependence
			}
			for id := range sliceLoads {
				acc, ok := access[id]
				if !ok {
					continue
				}
				set := l.SetOf(acc.First)
				if depthRoot < 0 {
					depthRoot = set
				} else {
					uf.union(depthRoot, set)
				}
			}
		}
	}

	byRoot := map[int][]int{}
	var roots []int
	for set := 0; set < numSets; set++ {
		if !touched[set] {
			continue
		}
		r := uf.find(set)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], set)
	}
	// roots were collected in ascending first-set order, so the grouping is a
	// pure function of (program, layout, options) — the cornerstone of
	// identical results at any parallelism level.
	p := setPartition{depthGroup: -1}
	for i, r := range roots {
		p.groups = append(p.groups, byRoot[r])
		if depthRoot >= 0 && uf.find(depthRoot) == r {
			p.depthGroup = i
		}
	}
	return p
}

// analyzePartitioned runs the per-set-group fixpoints and stitches one
// Result. It reports handled=false when the partition is trivial (zero or
// one group), in which case the caller should run the dense engine.
func analyzePartitioned(ctx context.Context, prog *ir.Program, g *cfg.Graph, l *layout.Layout, idx *interval.Result, opts Options, access, accessSpec map[int]cache.Access, code *bytecode.Program) (*Result, bool, error) {
	part := partitionSets(prog, l, opts, access, accessSpec)
	if len(part.groups) <= 1 {
		return nil, false, nil
	}

	engines := make([]*engine, len(part.groups))
	results := make([]*Result, len(part.groups))
	newGroupEngine := func(i int) *engine {
		ge := newEngineShared(prog, g, l, idx, opts, access, accessSpec, code)
		ge.dom.Filter = cache.NewSetFilter(l.Config.NumSets, part.groups[i])
		engines[i] = ge
		return ge
	}

	// Phase 1: the depth group runs alone with live §6.2 classification and
	// records the converged depths for everyone else.
	var oracle depthOracle
	rest := make([]int, 0, len(part.groups))
	for i := range part.groups {
		if i != part.depthGroup {
			rest = append(rest, i)
		}
	}
	if part.depthGroup >= 0 {
		ge := newGroupEngine(part.depthGroup)
		var runErr error
		pprof.Do(ctx, pprof.Labels("phase", "fixpoint", "engine", "depth-group"), func(ctx context.Context) {
			runErr = ge.run(ctx)
		})
		if runErr != nil {
			return nil, true, runErr
		}
		results[part.depthGroup] = ge.result()
		oracle = ge.recordDepths()
	}

	// Phase 2: the remaining groups are independent; fan them out.
	workers := opts.SetParallelism
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, len(rest))
	par.ForEach(workers, len(rest), func(k int) {
		ge := newGroupEngine(rest[k])
		ge.oracle = oracle
		var runErr error
		pprof.Do(ctx, pprof.Labels("phase", "fixpoint", "engine", "set-group"), func(ctx context.Context) {
			runErr = ge.run(ctx)
		})
		if runErr != nil {
			errs[k] = runErr
			return
		}
		results[rest[k]] = ge.result()
	})
	for _, err := range errs {
		if err != nil {
			return nil, true, err
		}
	}
	return stitchResults(prog, g, l, idx, opts, part, engines, results), true, nil
}

// stitchResults reassembles one dense Result from the per-group fixpoints:
// classification maps are disjoint unions, per-block states are copied
// set-group by set-group into fresh dense vectors, and speculative flows are
// renumbered by their stable (color, rollback block) keys.
func stitchResults(prog *ir.Program, g *cfg.Graph, l *layout.Layout, idx *interval.Result, opts Options, part setPartition, engines []*engine, results []*Result) *Result {
	numSets := l.Config.NumSets
	n := len(prog.Blocks)
	res := &Result{
		Prog:       prog,
		Graph:      g,
		Layout:     l,
		Opts:       opts,
		In:         make([]*cache.State, n),
		SpecIn:     make([]map[int]*cache.State, n),
		Access:     map[int]AccessInfo{},
		SpecAccess: map[int]cache.Classification{},
		Branches:   prog.CondBranchCount(),
		Colors:     len(engines[0].colors),
		Flows:      results[0].Flows,
		domain:     &cache.Domain{L: l, Refined: opts.RefinedJoin},
		idx:        idx,
	}
	for _, r := range results {
		res.Iterations += r.Iterations
		res.PoolStats.Add(r.PoolStats)
		// Integer sums are schedule-independent, so the stitched counters are
		// identical at every worker count even though the groups finish in
		// arbitrary order.
		res.Stats.Add(r.Stats)
		for id, ai := range r.Access {
			res.Access[id] = ai
		}
		for id, cls := range r.SpecAccess {
			res.SpecAccess[id] = cls
		}
	}
	sets := 0
	for _, g := range part.groups {
		sets += len(g)
	}
	res.Partition = obs.PartitionStats{
		Engines:      len(engines),
		Groups:       len(part.groups),
		DepthGroup:   part.depthGroup,
		SetsAnalyzed: sets,
	}

	for b := 0; b < n; b++ {
		// Normal states: every group agrees on reachability (the flow
		// structure is state-independent given the shared depths), so copy
		// each group's sets into one dense vector.
		var in *cache.State
		for gi, ge := range engines {
			if ge.S[b].IsBottom {
				continue
			}
			if in == nil {
				in = cache.NewState(l.NumBlocks)
			}
			in.CopySets(ge.S[b], part.groups[gi], numSets)
		}
		if in == nil {
			in = cache.Bottom()
		}
		res.In[b] = in

		// Speculative states: partition ids are interned per engine in
		// encounter order, so stitch by the stable (color, rollback block)
		// keys, renumbered in sorted order for determinism.
		keySet := map[partKey]bool{}
		for _, ge := range engines {
			for pid := range ge.SS[b] {
				p := ge.parts[pid]
				keySet[partKey{colorID: p.color.id, src: p.src}] = true
			}
		}
		res.SpecIn[b] = map[int]*cache.State{}
		if len(keySet) == 0 {
			continue
		}
		keys := make([]partKey, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].colorID != keys[j].colorID {
				return keys[i].colorID < keys[j].colorID
			}
			return keys[i].src < keys[j].src
		})
		for newPid, k := range keys {
			var merged *cache.State
			for gi, ge := range engines {
				pid, ok := ge.partByKey[k]
				if !ok {
					continue
				}
				st, ok := ge.SS[b][pid]
				if !ok || st.IsBottom {
					continue
				}
				if merged == nil {
					merged = cache.NewState(l.NumBlocks)
				}
				merged.CopySets(st, part.groups[gi], numSets)
			}
			if merged == nil {
				merged = cache.Bottom()
			}
			res.SpecIn[b][newPid] = merged
		}
	}
	return res
}
