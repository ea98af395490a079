package core

import (
	"container/heap"
	"context"

	"specabsint/internal/bytecode"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
)

// color identifies one speculative flow: branch block + predicted direction
// (§6.4, Algorithm 3: one independent speculative state per color).
type color struct {
	id        int
	branch    ir.BlockID
	predicted bool       // true: the True successor is speculated
	specSucc  ir.BlockID // entry of the speculated side
	otherSucc ir.BlockID // entry of the side rolled back to
	stop      ir.BlockID // vn_stop: immediate post-dominator of branch
}

// laneVal is a wrong-path exploration state with its remaining instruction
// budget. Budgets join by max: exploring deeper than the hardware would
// only over-approximates. vOff is the offset of the lane's verdict vector in
// the engine's slab (-1 until the lane is first walked); it belongs to the
// stored slot, not to the values passed between blocks. Both are int32 so
// the dense per-color arena keeps 16-byte slots.
type laneVal struct {
	st     *cache.State
	budget int32
	vOff   int32
}

// vNone marks a verdict slot the walk did not judge: an access outside the
// engine's set filter (its verdict belongs to the group owning its sets), or
// a wrong-path access beyond the lane's budget. Judged slots hold
// byte(cache.Classification).
const vNone byte = 0xff

// ssFlow names an SS flow at a block, keying its verdict vector.
type ssFlow struct {
	block ir.BlockID
	pid   int
}

// partition is one SS flow: a color, plus (for per-rollback-block
// partitioning) the block where the rollback occurred.
type partition struct {
	color *color
	src   ir.BlockID // -1 for the merged (JIT) partition
}

type partKey struct {
	colorID int
	src     ir.BlockID
}

// flowKey names a flow at a block for speculation-depth purposes: the normal
// flow is {-1, -1}; an SS flow is its partition's (colorID, src). Unlike
// partition ids (interned in encounter order, which differs between
// engines), flow keys are stable across the dense and per-set-group engines.
type flowKey struct {
	colorID int
	src     ir.BlockID
}

var normalFlow = flowKey{colorID: -1, src: -1}

// depthOracle records the converged speculation depth per (branch block,
// flow). The per-set partitioned analysis needs it because §6.2's dynamic
// depth bounding classifies the branch-condition loads — state owned by
// whichever set group holds those loads' cache sets — yet the resulting
// budget steers lane propagation in every group. The group union holding all
// branch-slice loads runs first with live depth computation; its converged
// depths are then fixed constants for the remaining groups. The two systems
// have the same least fixpoint: depths only grow b_h → b_m as states weaken
// (monotone feedback), so running with the final depths from the start
// over-approximates every live iterate yet agrees with the live system at
// its fixpoint.
type depthOracle map[depthKey]int

type depthKey struct {
	block ir.BlockID
	flow  flowKey
}

// blockHeap is a worklist ordered by reverse postorder, which minimizes
// re-iteration of downstream blocks.
type blockHeap struct {
	order []int // RPO index per block
	items []ir.BlockID
}

func (h *blockHeap) Len() int           { return len(h.items) }
func (h *blockHeap) Less(i, j int) bool { return h.order[h.items[i]] < h.order[h.items[j]] }
func (h *blockHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *blockHeap) Push(x any)         { h.items = append(h.items, x.(ir.BlockID)) }
func (h *blockHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

type engine struct {
	prog *ir.Program
	g    *cfg.Graph
	l    *layout.Layout
	dom  *cache.Domain
	idx  *interval.Result
	opts Options

	access map[int]cache.Access // per mem-instr id, architectural (in-bounds)
	// accessSpec resolves the same instructions on wrong paths, where
	// out-of-bounds indices reach adjacent memory instead of faulting
	// (Spectre v1); used by the lanes.
	accessSpec map[int]cache.Access
	// code is the bytecode-compiled transfer program (ExecCompiled), nil
	// under ExecInterp. When non-nil, walkArch and laneWalk iterate its
	// pre-resolved access steps instead of re-walking b.Instrs with an
	// access-map lookup per instruction; the tree-walking loops remain the
	// differential reference. Shared read-only across the per-set-group
	// engines.
	code *bytecode.Program

	S  []*cache.State
	SS []map[int]*cache.State
	// Lane[n] is indexed by color id and allocated lazily on the first lane
	// reaching n (a dense slice: every condbr seeds all its colors, so maps
	// only added bucket churn on the hottest join). budget < 0 marks a slot
	// no lane has reached yet.
	Lane [][]laneVal

	// verdicts is the slab of per-flow verdict vectors (DESIGN.md "One walk
	// per flow"): every walk of a flow through a block classifies each
	// access against the state it reaches, one byte per access slot (see
	// slots), into that flow's vector at the block. A vector is allocated on
	// the flow's first walk and overwritten by every later one, so once the
	// fixpoint is reached it holds the verdicts of the last walk — which ran
	// on the converged in-state, since every in-state change re-dirties the
	// flow. sVerd[n] is the S flow's offset (-1 until walked), ssVerd the SS
	// flows', laneVal.vOff the lanes'. Offsets stay valid as the slab grows;
	// slices of it do not survive the next allocation.
	verdicts []byte
	sVerd    []int32
	ssVerd   map[ssFlow]int32
	// slotBuf is scratch for slots under ExecInterp.
	slotBuf []bytecode.AccessStep
	// settled records that settle has walked the SS flows parked at their
	// vn_stop, the only flows the fixpoint never walks.
	settled bool

	// dirty flags: which flows at a block changed since last processed.
	dirtyS  []bool
	dirtySS []map[int]bool
	// dirtySSOrder lists each block's dirty SS partitions in the order they
	// became dirty, so process walks them deterministically (map range order
	// would vary run to run, and the semantic counters — join/transfer
	// totals, widening decisions — are pinned as run-to-run deterministic by
	// the stats contract).
	dirtySSOrder [][]int
	dirtyLane    [][]bool

	// change counters drive widening of speculative flows.
	ssChanges   []map[int]int
	laneChanges [][]int

	colors    []*color
	colorsAt  map[ir.BlockID][]*color
	parts     []partition
	partByKey map[partKey]int

	pdom *cfg.PostDomTree

	// succs[n] is the effective successor list used for all state
	// propagation: for a block ending in a Resolved CondBr only the taken
	// edge carries flow (the emitted branch is unconditional). Dominators,
	// post-dominators, and vn_stop placement keep using the full edge set.
	succs [][]ir.BlockID
	// effReach marks blocks reachable from entry along effective successors;
	// blocks behind a resolved branch's dead edge can be entered neither
	// architecturally nor speculatively, so they spawn no colors.
	effReach []bool

	// pool recycles the engine's transfer/walk/classify scratch states; see
	// cache.Pool for the ownership rules.
	pool *cache.Pool
	// oracle, when non-nil, supplies speculation depths instead of the live
	// §6.2 classification (per-set-group engines that do not own the
	// branch-slice loads' cache sets).
	oracle depthOracle
	// slices caches branchSlice per conditional-branch block: the slice is
	// state-independent, and depthFor runs on every pop of a dirty condbr.
	// Its slot positions are filled in by locateSliceLoads when run starts.
	slices map[ir.BlockID]blockSlice

	heap    blockHeap
	inWork  []bool
	changes []int // per-block S-change counts, for widening
	// wto is the Bourdoncle ordering of the effective CFG, non-nil iff the
	// engine runs under SchedulerWTO. Enqueued blocks are then tracked as
	// pending counts per enclosing component (wtoPending, plus the global
	// wtoLive) instead of heap entries: the recursive sweep re-iterates a
	// component exactly while it has pending members, stabilizing inner
	// components before re-entering outer ones.
	wto        *cfg.WTO
	wtoPending []int
	wtoLive    int
	// Dirty-element min-heaps, one per WTO nesting level (index c+1 for
	// component c, index 0 for the top-level sequence), holding the indices
	// of that level's dirty elements. Speculation makes information flow
	// backward through non-CFG channels — a lane rollback joins SS at the
	// branch's other successor, behind the lane's current block, and an SS
	// flow reaching its vn_stop re-joins the normal state of that same
	// block — so a plain front-to-back sweep would re-propagate
	// intermediate states through the whole downstream tail once per
	// backward event. The heaps let each sweep always process the earliest
	// dirty element of its level next, draining upstream re-dirt before any
	// downstream block is (re)visited — the same upstream-first discipline
	// the RPO priority heap provides, applied per nesting level (on an
	// acyclic CFG the single top-level heap degenerates to exactly that).
	// Entries are lazily deleted: an element may be stale by the time it is
	// popped (block no longer in-work, component no longer pending) and is
	// then skipped.
	wtoDirty [][]int
	// wtoBlockIdx[b] is b's element index within its immediate level (body
	// of CompOf[b], or the top-level sequence); for component heads see
	// wtoHeadComp/wtoCompIdx instead, since heads are not body elements.
	wtoBlockIdx []int
	// wtoCompIdx[c] is component c's element index within its parent level.
	wtoCompIdx []int
	// wtoHeadComp[b] is the component headed by b, or -1.
	wtoHeadComp []int
	// lanesOff suppresses lane spawning during the uncertainty pre-pass:
	// the engine first converges the cheap classic must/may analysis
	// (normal flow only), then re-seeds every unresolved branch so lanes
	// spawn once, from near-final states, instead of being re-spawned and
	// re-propagated on every early state change.
	lanesOff bool
	// widenOK permits the classic count-triggered widening at loop headers
	// (the canonical phase-1 solve and the legacy single-pass path). That
	// widening fires on per-block change counts, which depend on iteration
	// order — which is why phase 1 is pinned to one canonical schedule.
	//
	// satWiden replaces it in phase 2: every loop-head contribution is
	// first Saturate'd against satRef — a frozen snapshot of the block's
	// phase-1 state — before being joined. Any dimension a contribution
	// pushes past its classic value jumps straight to the join-absorbing
	// extreme (must age to evicted, shadow age to 1). Because the reference
	// is constant, the saturation is a monotone transform, so the phase-2
	// system stays monotone and its least fixpoint is identical under any
	// fair visit order — widening never re-introduces schedule dependence.
	// (Widening against the *evolving* previous iterate would: for states
	// seeded at bottom, such as the per-color lanes and per-pid SS flows,
	// whichever contribution lands first would become the reference.)
	// Semantically this is the paper's §6.3 amplification: speculative
	// pollution reaching a loop head is widened to its absorbing worst
	// immediately instead of creeping one age step per fixpoint round.
	widenOK  bool
	satWiden bool
	satRef   []*cache.State
	// laneNeed[b] is the minimum entry budget with which a wrong-path lane
	// entering block b can still transfer at least one memory access
	// (structural: from instruction counts and access positions along
	// effective successors). Spawns with depth < laneNeed[specSucc] are
	// provably invisible — the lane would expire before touching memory,
	// contributing no SpecAccess verdict and no rollback — and are skipped
	// (counted as LanesSkippedCertain). nil when uncertainty focusing is
	// disabled.
	laneNeed []int
	// loopHeader marks natural-loop headers: widening applies only there
	// (§6.3 targets loops; widening ordinary merge blocks would discard
	// precision that plain joins preserve).
	loopHeader []bool
	iter       int

	// stats accumulates the engine's semantic effort counters in plain
	// fields — no atomics, no indirection — and is copied into the Result
	// once at the end of the run. The fields are deterministic because the
	// whole engine is: the worklist, the dirty-flow orders, and every join
	// are schedule-free single-goroutine computations.
	stats obs.FixpointStats
}

func newEngine(prog *ir.Program, g *cfg.Graph, l *layout.Layout, idx *interval.Result, opts Options) *engine {
	access, accessSpec := dataAccessMaps(prog, l, idx)
	var code *bytecode.Program
	if opts.Exec == bytecode.ExecCompiled {
		code = bytecode.Compile(prog, access, accessSpec)
	}
	return newEngineShared(prog, g, l, idx, opts, access, accessSpec, code)
}

// newEngineShared builds an engine around precomputed access maps and an
// optionally precompiled transfer program, so the per-set-group engines of
// the partitioned analysis can share one resolution pass and one compiled
// form (both are read-only from here on). code must be nil exactly when
// opts.Exec is ExecInterp.
func newEngineShared(prog *ir.Program, g *cfg.Graph, l *layout.Layout, idx *interval.Result, opts Options, access, accessSpec map[int]cache.Access, code *bytecode.Program) *engine {
	n := len(prog.Blocks)
	e := &engine{
		prog:         prog,
		g:            g,
		l:            l,
		dom:          &cache.Domain{L: l, Refined: opts.RefinedJoin},
		idx:          idx,
		opts:         opts,
		access:       access,
		accessSpec:   accessSpec,
		code:         code,
		pool:         cache.NewPool(l.NumBlocks),
		S:            make([]*cache.State, n),
		SS:           make([]map[int]*cache.State, n),
		Lane:         make([][]laneVal, n),
		sVerd:        make([]int32, n),
		ssVerd:       map[ssFlow]int32{},
		dirtyS:       make([]bool, n),
		dirtySS:      make([]map[int]bool, n),
		dirtySSOrder: make([][]int, n),
		dirtyLane:    make([][]bool, n),
		ssChanges:    make([]map[int]int, n),
		laneChanges:  make([][]int, n),
		colorsAt:     map[ir.BlockID][]*color{},
		partByKey:    map[partKey]int{},
		inWork:       make([]bool, n),
		changes:      make([]int, n),
	}
	e.heap.order = make([]int, n)
	for i := range e.heap.order {
		if g.RPOIndex[i] >= 0 {
			e.heap.order[i] = g.RPOIndex[i]
		} else {
			e.heap.order[i] = n // unreachable: last
		}
	}
	for i := range e.S {
		e.sVerd[i] = -1
		e.S[i] = cache.Bottom()
		e.SS[i] = map[int]*cache.State{}
		e.dirtySS[i] = map[int]bool{}
		e.ssChanges[i] = map[int]int{}
	}
	e.S[prog.Entry] = cache.NewState(l.NumBlocks)
	e.dirtyS[prog.Entry] = true

	e.loopHeader = make([]bool, n)
	for _, loop := range g.NaturalLoops(g.Dominators()) {
		e.loopHeader[loop.Header] = true
	}

	e.succs = make([][]ir.BlockID, n)
	for _, b := range prog.Blocks {
		e.succs[b.ID] = b.EffectiveSuccs()
	}
	e.effReach = effectiveReachable(prog, e.succs)

	if opts.Speculative {
		e.pdom = g.PostDominators()
		e.slices = map[ir.BlockID]blockSlice{}
		for _, b := range prog.Blocks {
			t := b.Terminator()
			// Resolved branches are unconditional jumps in the emitted
			// program: no misprediction, no colors. Blocks only reachable
			// through a resolved branch's dead edge spawn none either — no
			// execution, architectural or wrong-path, can enter them.
			if t == nil || t.Op != ir.OpCondBr || t.Resolved || !e.effReach[b.ID] {
				continue
			}
			loads, resolved := branchSlice(b)
			e.slices[b.ID] = blockSlice{loads: loads, resolved: resolved}
			stop := e.pdom.ImmediatePostDom(b.ID)
			for _, predicted := range []bool{true, false} {
				c := &color{
					id:        len(e.colors),
					branch:    b.ID,
					predicted: predicted,
					stop:      stop,
				}
				if predicted {
					c.specSucc, c.otherSucc = t.TrueTarget, t.FalseTarget
				} else {
					c.specSucc, c.otherSucc = t.FalseTarget, t.TrueTarget
				}
				e.colors = append(e.colors, c)
				e.colorsAt[b.ID] = append(e.colorsAt[b.ID], c)
			}
		}
	}
	if e.uncertainty() {
		e.laneNeed = laneNeedBudgets(prog, e.succs, accessSpec)
	}
	return e
}

// uncertainty reports whether the engine runs the uncertainty-focused
// speculation machinery: the classic warm-start pre-pass plus the
// certain-branch spawn skip. It is on for every speculative analysis with at
// least one unresolved branch unless the ablation knob disables it.
func (e *engine) uncertainty() bool {
	return e.opts.Speculative && !e.opts.DisableUncertainty && len(e.colors) > 0
}

// laneNeedInf is the laneNeed value for blocks from which no wrong-path
// memory access is reachable at any budget (half of MaxInt so adding a block
// length cannot overflow).
const laneNeedInf = int(^uint(0)>>1) / 2

// laneNeedBudgets solves the min-fixpoint
//
//	need[b] = min(firstAccess(b)+1, len(b.Instrs) + min over succs s of need[s])
//
// mirroring laneWalk's budget semantics exactly: a lane entering b with
// budget B transfers the access at instruction index i iff B >= i+1, and
// continues into a successor with budget B-len(b.Instrs) iff that is
// positive. need[b] is therefore the smallest entry budget at which a lane
// entering b can reach any wrong-path memory access. A fence truncates both
// terms exactly as it truncates laneWalk: only accesses before the block's
// first fence are reachable, and a fenced block has no successor
// continuation (the lane dies at the fence). The recurrence is monotone
// decreasing from laneNeedInf, so round-robin iteration converges.
func laneNeedBudgets(prog *ir.Program, succs [][]ir.BlockID, accessSpec map[int]cache.Access) []int {
	n := len(prog.Blocks)
	need := make([]int, n)
	first := make([]int, n)
	fenced := make([]bool, n)
	for _, b := range prog.Blocks {
		need[b.ID] = laneNeedInf
		first[b.ID] = laneNeedInf
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpFence {
				fenced[b.ID] = true
				break
			}
			if first[b.ID] == laneNeedInf {
				if _, ok := accessSpec[b.Instrs[i].ID]; ok {
					first[b.ID] = i + 1
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range prog.Blocks {
			v := first[b.ID]
			if !fenced[b.ID] {
				for _, s := range succs[b.ID] {
					if c := len(b.Instrs) + need[s]; c < v {
						v = c
					}
				}
			}
			if v < need[b.ID] {
				need[b.ID] = v
				changed = true
			}
		}
	}
	return need
}

// effectiveReachable marks blocks reachable from entry along effective
// successor edges.
func effectiveReachable(prog *ir.Program, succs [][]ir.BlockID) []bool {
	reach := make([]bool, len(prog.Blocks))
	stack := []ir.BlockID{prog.Entry}
	reach[prog.Entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[n] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

func (e *engine) enqueue(b ir.BlockID) {
	if e.inWork[b] {
		return
	}
	e.inWork[b] = true
	if e.wto != nil {
		e.wtoLive++
		// Queue b's element at its own level (component heads have no body
		// element — they are re-stepped by their component's stabilization
		// loop), then push each enclosing component's element at the level
		// above when it transitions clean→pending.
		if e.wtoHeadComp[b] < 0 {
			intHeapPush(&e.wtoDirty[e.wto.CompOf[b]+1], e.wtoBlockIdx[b])
		}
		for c := e.wto.CompOf[b]; c >= 0; c = e.wto.Parent[c] {
			e.wtoPending[c]++
			if e.wtoPending[c] == 1 {
				intHeapPush(&e.wtoDirty[e.wto.Parent[c]+1], e.wtoCompIdx[c])
			}
		}
		return
	}
	heap.Push(&e.heap, b)
}

// ctxCheckInterval is how many worklist pops pass between context polls.
// One poll is a channel select — cheap, but not free on a loop that runs
// millions of times on large unrolled programs.
const ctxCheckInterval = 256

func (e *engine) run(ctx context.Context) error {
	e.locateSliceLoads()
	singlePass := e.opts.DisableUncertainty
	if !singlePass {
		// The two-phase split below exists to canonicalize widening
		// decisions. When widening cannot fire at all — no loop headers in
		// the simplified CFG (the common case after full unrolling), or
		// widening disabled — the whole system is a plain monotone
		// iteration whose least fixpoint is schedule-independent by itself,
		// and the split would only pay its phase-2 re-solve overhead for a
		// canonicalization it does not need. Solve in one pass instead;
		// uncertainty focusing (laneNeed pruning) still applies.
		hasLoops := false
		for _, lh := range e.loopHeader {
			if lh {
				hasLoops = true
				break
			}
		}
		singlePass = !hasLoops || e.opts.WideningThreshold <= 0
	}
	if singlePass {
		// Single-pass solve under the configured scheduler. With
		// DisableUncertainty this is the legacy ablation/benchmark baseline
		// (seed-equivalent under SchedulerWorklist): widening triggers on
		// per-block change counts and schedulers batch changes differently,
		// so around widening its results are scheduler-dependent — it is
		// not a supported configuration, just the attribution arm.
		if e.opts.Scheduler == SchedulerWTO {
			e.initWTO()
		}
		e.widenOK = true
		e.enqueue(e.prog.Entry)
		return e.solver()(e, ctx)
	}
	// Phase 1 — canonical classic pass. Lane spawning is off: with no lanes
	// there are no rollbacks and hence no SS flows, so this converges
	// exactly the non-speculative must/may fixpoint. It always runs under
	// the WTO schedule with widening enabled, whatever Options.Scheduler
	// says: widening triggers on per-block change counts, which depend on
	// iteration order, so pinning this phase to one canonical deterministic
	// schedule is what makes every widening decision — and therefore the
	// final classifications — identical across schedulers.
	e.initWTO()
	e.lanesOff = true
	e.widenOK = true
	e.enqueue(e.prog.Entry)
	if err := e.solver()(e, ctx); err != nil {
		return err
	}
	// Phase 2 — speculative completion under the configured scheduler.
	// Every unresolved branch whose state is live is re-seeded, so lanes
	// spawn once, from the converged classic states where the analysis is
	// actually uncertain, instead of being re-spawned on every intermediate
	// state change (uncertainty-focused speculation). Starting from the
	// identical phase-1 states, the remaining system is a monotone
	// iteration — joins, transfers, budget maxima, and the reference
	// saturation described on satWiden — whose least fixpoint is
	// schedule-independent: both schedulers land on byte-identical results
	// and differ only in how much work they spend getting there.
	e.lanesOff = false
	e.widenOK = false
	e.satWiden = true
	if e.opts.WideningThreshold > 0 {
		e.satRef = make([]*cache.State, len(e.S))
		for i := range e.satRef {
			if e.loopHeader[i] {
				e.satRef[i] = e.S[i].Clone()
			}
		}
	}
	if e.opts.Scheduler != SchedulerWTO {
		e.wto = nil // route enqueues back to the RPO heap
	}
	for _, b := range e.prog.Blocks {
		if len(e.colorsAt[b.ID]) > 0 && !e.S[b.ID].IsBottom {
			e.dirtyS[b.ID] = true
			e.enqueue(b.ID)
		}
	}
	return e.solver()(e, ctx)
}

// solveWorklist drains the RPO-ordered worklist heap (SchedulerWorklist).
func (e *engine) solveWorklist(ctx context.Context) error {
	for e.heap.Len() > 0 {
		if e.iter%ctxCheckInterval == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		b := heap.Pop(&e.heap).(ir.BlockID)
		e.inWork[b] = false
		e.iter++
		e.process(b)
	}
	return nil
}

// intHeapPush and intHeapPop maintain a plain min-heap of ints — the
// per-level dirty-element queues, where container/heap's interface
// indirection and per-push boxing would show up on the hot path.
func intHeapPush(h *[]int, v int) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func intHeapPop(h *[]int) int {
	s := *h
	v := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && s[l] < s[min] {
			min = l
		}
		if r < n && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return v
}

// initWTO computes the Bourdoncle ordering over the effective CFG, indexes
// the element tree for enqueue's cursor bubbling, and switches enqueue to
// component-pending accounting.
func (e *engine) initWTO() {
	n := len(e.prog.Blocks)
	wto := cfg.WTOOf(n, e.prog.Entry, func(b ir.BlockID) []ir.BlockID {
		return e.succs[b]
	})
	e.stats.WTOComponents = int64(wto.NumComponents)
	if wto.NumComponents == 0 {
		// Acyclic CFG (common after full unrolling): the weak topological
		// order degenerates to plain reverse postorder, which the RPO
		// priority heap already implements — identical visit order without
		// the per-level sweep bookkeeping. Leave e.wto nil so enqueue and
		// run route through the worklist machinery.
		return
	}
	e.wto = wto
	e.wtoPending = make([]int, e.wto.NumComponents)
	e.wtoBlockIdx = make([]int, n)
	e.wtoCompIdx = make([]int, e.wto.NumComponents)
	e.wtoHeadComp = make([]int, n)
	for i := range e.wtoHeadComp {
		e.wtoHeadComp[i] = -1
	}
	e.wtoDirty = make([][]int, e.wto.NumComponents+1)
	var index func(elems []cfg.WTOElem)
	index = func(elems []cfg.WTOElem) {
		for i, el := range elems {
			if el.Comp != nil {
				e.wtoCompIdx[el.Comp.Index] = i
				e.wtoHeadComp[el.Comp.Head] = el.Comp.Index
				index(el.Comp.Body)
				continue
			}
			e.wtoBlockIdx[el.Block] = i
		}
	}
	index(e.wto.Sequence)
}

// solver picks the drain routine matching the schedule initWTO (or a later
// e.wto reset) left in place.
func (e *engine) solver() func(*engine, context.Context) error {
	if e.wto != nil {
		return (*engine).solveWTO
	}
	return (*engine).solveWorklist
}

// solveWTO drains pending work in weak topological order. One sweep of the
// top level suffices: any dirty block keeps its whole chain of enclosing
// elements queued, so the top-level heap is non-empty whenever work remains.
func (e *engine) solveWTO(ctx context.Context) error {
	return e.sweepWTO(ctx, -1, e.wto.Sequence)
}

// sweepWTO processes the elements of one WTO nesting level (lvl -1 is the
// top-level sequence, otherwise a component index whose body elems is)
// until the level is clean, always taking the earliest dirty element next
// (the level's min-heap): upstream re-dirt — a rollback injection or
// vn_stop self-merge landing behind the sweep — is drained before any
// downstream block is revisited, keeping the cost of speculation's backward
// information flow proportional to the re-dirtied region instead of the
// whole downstream tail. Component elements loop locally — head, then body,
// recursively — until nothing inside them is pending, so inner loops fully
// stabilize before the outer sequence moves on (Bourdoncle's recursive
// iteration strategy).
func (e *engine) sweepWTO(ctx context.Context, lvl int, elems []cfg.WTOElem) error {
	h := &e.wtoDirty[lvl+1]
	for len(*h) > 0 {
		el := &elems[intHeapPop(h)]
		if el.Comp == nil {
			// Stale entries (block already stepped as part of an enclosing
			// drain) are skipped by stepWTO's in-work check.
			if err := e.stepWTO(ctx, el.Block); err != nil {
				return err
			}
			continue
		}
		for e.wtoPending[el.Comp.Index] > 0 {
			if err := e.stepWTO(ctx, el.Comp.Head); err != nil {
				return err
			}
			if err := e.sweepWTO(ctx, el.Comp.Index, el.Comp.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepWTO processes block b if it is pending, maintaining the component
// pending counters that drive sweepWTO's local stabilization loops.
func (e *engine) stepWTO(ctx context.Context, b ir.BlockID) error {
	if !e.inWork[b] {
		return nil
	}
	e.inWork[b] = false
	e.wtoLive--
	for c := e.wto.CompOf[b]; c >= 0; c = e.wto.Parent[c] {
		e.wtoPending[c]--
	}
	if e.iter%ctxCheckInterval == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	e.iter++
	e.process(b)
	return nil
}

// dataAccessMaps resolves every Load/Store to its candidate blocks: the
// architectural (in-bounds) resolution and the wrong-path (OOB-extended)
// resolution.
func dataAccessMaps(prog *ir.Program, l *layout.Layout, idx *interval.Result) (access, accessSpec map[int]cache.Access) {
	access = make(map[int]cache.Access)
	accessSpec = make(map[int]cache.Access)
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				access[in.ID] = resolveAccess(l, idx, in)
				accessSpec[in.ID] = resolveSpecAccess(l, idx, in)
			}
		}
	}
	return access, accessSpec
}

// transferBlock pushes a cache state through all instructions of a block,
// recording the verdict of every access in vs (see walkArch). The returned
// state is pooled scratch: the caller must hand it back with e.pool.Put
// once it has been joined into its targets (joins copy, so no target
// retains it).
func (e *engine) transferBlock(b *ir.Block, st *cache.State, vs []byte) *cache.State {
	out := e.pool.Get()
	out.CopyFrom(st)
	e.stats.Transfers += int64(e.walkArch(b, out, vs))
	return out
}

// walkArch pushes st in place through b's architectural accesses, judging
// each one against the state just before its transfer (Algorithm 2's
// classification point) into vs, and returns the number of transfers.
func (e *engine) walkArch(b *ir.Block, st *cache.State, vs []byte) int {
	if e.code != nil {
		// Compiled form: the access sequence and its resolutions were
		// precomputed, so the loop touches only memory instructions — same
		// transfers, in the same order, as the tree walk below.
		steps := e.code.Blocks[b.ID].Arch
		for i := range steps {
			vs[i] = e.judge(st, steps[i].Acc)
			e.dom.Transfer(st, steps[i].Acc)
		}
		return len(steps)
	}
	n := 0
	for i := range b.Instrs {
		if acc, ok := e.access[b.Instrs[i].ID]; ok {
			vs[n] = e.judge(st, acc)
			e.dom.Transfer(st, acc)
			n++
		}
	}
	return n
}

// judge is one verdict slot: acc's classification against st, or vNone when
// acc lies outside the engine's set filter.
func (e *engine) judge(st *cache.State, acc cache.Access) byte {
	if !e.dom.Owns(acc) {
		return vNone
	}
	return byte(e.dom.Classify(st, acc))
}

// slots lists b's verdict slots in walk order: its architectural accesses,
// or (spec) the wrong-path accesses before its first fence — the only ones
// a lane can reach. Under ExecInterp the list is rebuilt into e.slotBuf and
// is valid until the next call.
func (e *engine) slots(b *ir.Block, spec bool) []bytecode.AccessStep {
	if e.code != nil {
		if spec {
			return e.code.Blocks[b.ID].Spec
		}
		return e.code.Blocks[b.ID].Arch
	}
	buf := e.slotBuf[:0]
	for i := range b.Instrs {
		in := &b.Instrs[i]
		m := e.access
		if spec {
			if in.Op == ir.OpFence {
				break
			}
			m = e.accessSpec
		}
		if acc, ok := m[in.ID]; ok {
			buf = append(buf, bytecode.AccessStep{In: in, Pos: i, Acc: acc})
		}
	}
	e.slotBuf = buf
	return buf
}

// vec returns the verdict vector at *off, allocating b's slots in the slab
// first if *off < 0. The slice runs to the end of the slab — a walk writes
// exactly its own slots — and is valid until the next allocation.
func (e *engine) vec(off *int32, b *ir.Block, spec bool) []byte {
	if *off < 0 {
		*off = int32(len(e.verdicts))
		e.verdicts = append(e.verdicts, make([]byte, len(e.slots(b, spec)))...)
	}
	return e.verdicts[*off:]
}

// ssVec is vec for SS flow pid at b.
func (e *engine) ssVec(b *ir.Block, pid int) ([]byte, int32) {
	key := ssFlow{block: b.ID, pid: pid}
	off, ok := e.ssVerd[key]
	if !ok {
		off = -1
	}
	vs := e.vec(&off, b, false)
	if !ok {
		e.ssVerd[key] = off
	}
	return vs, off
}

// saturate applies the phase-2 reference saturation to a loop-head
// contribution (see satWiden): the returned state is pooled scratch the
// caller must Put back when owned is true. Outside phase 2, or away from
// loop heads, st is returned untouched.
func (e *engine) saturate(target ir.BlockID, st *cache.State) (out *cache.State, owned bool) {
	if !e.satWiden || e.satRef == nil || !e.loopHeader[target] {
		return st, false
	}
	scratch := e.pool.Get()
	scratch.CopyFrom(st)
	e.dom.Saturate(e.satRef[target], scratch)
	e.stats.Widenings++
	return scratch, true
}

// joinS merges st into S[target], widening if the block keeps changing, and
// re-enqueues the target on change.
func (e *engine) joinS(target ir.BlockID, st *cache.State) {
	e.stats.Joins++
	st, owned := e.saturate(target, st)
	widening := e.widenOK && e.opts.WideningThreshold > 0 && e.loopHeader[target] &&
		e.changes[target] >= e.opts.WideningThreshold
	var prev *cache.State
	if widening {
		prev = e.S[target].Clone()
	}
	changed := e.dom.JoinInto(e.S[target], st)
	if owned {
		e.pool.Put(st)
	}
	if !changed {
		return
	}
	e.stats.JoinChanges++
	if widening {
		e.S[target] = e.dom.Widen(prev, e.S[target])
		e.stats.Widenings++
	}
	e.changes[target]++
	e.dirtyS[target] = true
	e.enqueue(target)
}

// joinSS merges st into SS[target][pid] and re-enqueues on change.
// Like joinS, repeated growth is widened: speculative states circulating in
// loops would otherwise creep one age step per fixpoint round (§6.3 applies
// to speculative flows just as much as to normal ones).
func (e *engine) joinSS(target ir.BlockID, pid int, st *cache.State) {
	e.stats.SpecJoins++
	cur, ok := e.SS[target][pid]
	if !ok {
		cur = cache.Bottom()
		e.SS[target][pid] = cur
	}
	st, owned := e.saturate(target, st)
	widening := e.widenOK && e.opts.WideningThreshold > 0 && e.loopHeader[target] &&
		e.ssChanges[target][pid] >= e.opts.WideningThreshold
	var prev *cache.State
	if widening {
		prev = cur.Clone()
	}
	changed := e.dom.JoinInto(cur, st)
	if owned {
		e.pool.Put(st)
	}
	if !changed {
		return
	}
	if widening {
		e.SS[target][pid] = e.dom.Widen(prev, cur)
		e.stats.Widenings++
	}
	e.ssChanges[target][pid]++
	if !e.dirtySS[target][pid] {
		e.dirtySS[target][pid] = true
		e.dirtySSOrder[target] = append(e.dirtySSOrder[target], pid)
	}
	e.enqueue(target)
}

// joinLane merges a lane value (state join, budget max) and re-enqueues on
// change, widening after repeated growth.
func (e *engine) joinLane(target ir.BlockID, colorID int, lv laneVal) {
	e.stats.LaneJoins++
	if e.Lane[target] == nil {
		// One arena of bottom states for all colors at this block: the lane
		// universe is dense (every mispredicted branch seeds all its colors),
		// so batching the allocation beats per-color map inserts.
		nc := len(e.colors)
		lanes := make([]laneVal, nc)
		arena := make([]cache.State, nc)
		for i := range lanes {
			arena[i].IsBottom = true
			lanes[i] = laneVal{st: &arena[i], budget: -1, vOff: -1}
		}
		e.Lane[target] = lanes
		e.dirtyLane[target] = make([]bool, nc)
		e.laneChanges[target] = make([]int, nc)
	}
	cur := &e.Lane[target][colorID]
	fresh := cur.budget < 0
	if fresh {
		cur.budget = 0
	}
	lst, owned := e.saturate(target, lv.st)
	widening := e.widenOK && e.opts.WideningThreshold > 0 && e.loopHeader[target] &&
		e.laneChanges[target][colorID] >= e.opts.WideningThreshold
	var prev *cache.State
	if widening {
		prev = cur.st.Clone()
	}
	changed := e.dom.JoinInto(cur.st, lst)
	if owned {
		e.pool.Put(lst)
	}
	if changed && widening {
		cur.st = e.dom.Widen(prev, cur.st)
		e.stats.Widenings++
	}
	if lv.budget > cur.budget {
		cur.budget = lv.budget
		changed = true
	}
	if changed || fresh {
		e.laneChanges[target][colorID]++
		e.dirtyLane[target][colorID] = true
		e.enqueue(target)
	}
}

// partFor interns a partition id.
func (e *engine) partFor(c *color, src ir.BlockID) int {
	key := partKey{colorID: c.id, src: src}
	if pid, ok := e.partByKey[key]; ok {
		return pid
	}
	pid := len(e.parts)
	e.parts = append(e.parts, partition{color: c, src: src})
	e.partByKey[key] = pid
	return pid
}

// process handles one worklist pop. Only flows whose in-state changed since
// they were last pushed through the block are re-evaluated.
func (e *engine) process(n ir.BlockID) {
	block := e.prog.Block(n)

	isCondBr := false
	if t := block.Terminator(); t != nil && t.Op == ir.OpCondBr && !t.Resolved {
		isCondBr = true
	}
	// injectLanes starts the block's speculative flows from one source
	// state (either the normal flow or a post-rollback SS flow — after a
	// rollback, execution is architectural again and can itself
	// mispredict, so SS flows must seed lanes too). fk identifies the
	// source flow for the depth oracle; off is the offset of the verdicts
	// the walk of src through this block just recorded.
	injectLanes := func(src, out *cache.State, fk flowKey, off int32) {
		if !e.opts.Speculative || !isCondBr || e.lanesOff {
			return
		}
		depth := e.depthFor(block, src, fk, off)
		if depth <= 0 {
			return
		}
		for _, c := range e.colorsAt[n] {
			// Certain-branch skip: a lane whose budget cannot reach any
			// wrong-path memory access transfers nothing, classifies
			// nothing, and accumulates a Bottom rollback — spawning it
			// would only burn lane joins and walks. Skipping is invisible
			// to every classification (see laneNeed) and consistent across
			// schedulers and set-group engines: the §6.2 depth per flow is
			// nondecreasing during iteration, so the flow's final spawn is
			// skipped in one engine iff it is skipped in all.
			if e.laneNeed != nil && depth < e.laneNeed[c.specSucc] {
				e.stats.LanesSkippedCertain++
				continue
			}
			e.joinLane(c.specSucc, c.id, laneVal{st: out, budget: int32(depth)})
			e.stats.LanesSpawned++
		}
	}

	// Normal (architectural) flow.
	if e.dirtyS[n] {
		e.dirtyS[n] = false
		if !e.S[n].IsBottom {
			out := e.transferBlock(block, e.S[n], e.vec(&e.sVerd[n], block, false))
			for _, s := range e.succs[n] {
				e.joinS(s, out)
			}
			injectLanes(e.S[n], out, normalFlow, e.sVerd[n])
			e.pool.Put(out)
		}
	}

	// Speculative post-rollback flows (Algorithm 2/3: SS states). At the
	// color's vn_stop they convert back into the normal state; elsewhere
	// they propagate in parallel with it. The snapshot of the dirty order
	// keeps the walk deterministic; flows re-dirtied while we process them
	// (self-loops) land in a fresh order slice and re-enqueue the block.
	dirtySS := e.dirtySSOrder[n]
	e.dirtySSOrder[n] = nil
	for _, pid := range dirtySS {
		delete(e.dirtySS[n], pid)
		st := e.SS[n][pid]
		p := e.parts[pid]
		if n == p.color.stop {
			// Parked: never walked here; settle walks it once at the end.
			e.joinS(n, st)
			continue
		}
		vs, off := e.ssVec(block, pid)
		out := e.transferBlock(block, st, vs)
		for _, s := range e.succs[n] {
			e.joinSS(s, pid, out)
		}
		injectLanes(st, out, flowKey{colorID: p.color.id, src: p.src}, off)
		e.pool.Put(out)
	}

	// Wrong-path lanes: explore the speculated side, accumulating a rollback
	// state after every memory access within the budget.
	for colorID := range e.dirtyLane[n] {
		if !e.dirtyLane[n][colorID] {
			continue
		}
		e.dirtyLane[n][colorID] = false
		vs := e.vec(&e.Lane[n][colorID].vOff, block, true)
		lv := e.Lane[n][colorID]
		c := e.colors[colorID]
		out, rollback := e.laneWalk(block, lv, vs)
		if out.budget > 0 {
			for _, s := range e.succs[n] {
				e.joinLane(s, colorID, out)
			}
		} else {
			e.stats.LanesExpired++
		}
		if !rollback.IsBottom {
			e.injectRollback(c, n, rollback)
			e.stats.Rollbacks++
		}
		e.pool.Put(out.st)
		e.pool.Put(rollback)
	}
}

// laneWalk pushes a lane through a block, consuming budget per instruction
// and joining the state after each memory access into the rollback
// accumulator (a rollback may occur at any moment, §5.1). Each access within
// the budget is judged into vs before its transfer, as walkArch does; the
// block's remaining spec slots get vNone. Both returned states are pooled
// scratch the caller must Put back.
//
// The rollback accumulation points are structural — every memory access in
// range, whether or not this engine's set filter owns it (a filtered
// Transfer is then a no-op, but the rollback join must still happen so the
// per-set-group engines inject the same SS flows as the dense engine).
func (e *engine) laneWalk(b *ir.Block, lv laneVal, vs []byte) (laneVal, *cache.State) {
	if e.code != nil {
		return e.laneWalkCompiled(&e.code.Blocks[b.ID], lv, vs)
	}
	st := e.pool.Get()
	st.CopyFrom(lv.st)
	budget := lv.budget
	rollback := e.pool.Get()
	rollback.SetBottom()
	k, i := 0, 0
	for ; i < len(b.Instrs); i++ {
		if budget == 0 {
			break
		}
		if b.Instrs[i].Op == ir.OpFence {
			// A fence reaching execute kills all in-flight speculation: the
			// wrong path stops here, before the fence issues, so nothing past
			// it transfers, classifies, or continues into successors. The
			// accumulated rollback still injects — a rollback may have
			// occurred at any access before the fence.
			budget = 0
			e.stats.FencesHit++
			break
		}
		budget--
		if acc, ok := e.accessSpec[b.Instrs[i].ID]; ok {
			vs[k] = e.judge(st, acc)
			k++
			e.dom.Transfer(st, acc)
			e.stats.SpecTransfers++
			e.dom.JoinInto(rollback, st)
		}
	}
	for ; i < len(b.Instrs) && b.Instrs[i].Op != ir.OpFence; i++ {
		if _, ok := e.accessSpec[b.Instrs[i].ID]; ok {
			vs[k] = vNone
			k++
		}
	}
	return laneVal{st: st, budget: budget}, rollback
}

// laneWalkCompiled is laneWalk on the compiled form. The tree walk decrements
// the budget once per instruction and breaks at the first fence; here that
// arithmetic is positional. An entry budget B executes the spec step at
// instruction index p iff B >= p+1 (the step list is already truncated at
// the block's first fence), the fence is *hit* — FencesHit accounting — iff
// B strictly exceeds its index (at B == FenceIdx the budget expires at the
// fence without reaching execute, exactly the tree walk's order of checks),
// and with a fence present the out-budget is always zero since the walk can
// never cross it.
func (e *engine) laneWalkCompiled(bc *bytecode.BlockCode, lv laneVal, vs []byte) (laneVal, *cache.State) {
	st := e.pool.Get()
	st.CopyFrom(lv.st)
	budget := int(lv.budget)
	rollback := e.pool.Get()
	rollback.SetBottom()
	steps := bc.Spec
	i := 0
	for ; i < len(steps) && budget > steps[i].Pos; i++ {
		vs[i] = e.judge(st, steps[i].Acc)
		e.dom.Transfer(st, steps[i].Acc)
		e.stats.SpecTransfers++
		e.dom.JoinInto(rollback, st)
	}
	for ; i < len(steps); i++ {
		vs[i] = vNone
	}
	switch {
	case bc.FenceIdx >= 0 && budget > bc.FenceIdx:
		budget = 0
		e.stats.FencesHit++
	case bc.FenceIdx >= 0:
		budget = 0
	default:
		budget -= bc.NumInstrs
		if budget < 0 {
			budget = 0
		}
	}
	return laneVal{st: st, budget: int32(budget)}, rollback
}

// injectRollback feeds an accumulated rollback state of color c (observed in
// block src) into the other branch, per the merge strategy.
func (e *engine) injectRollback(c *color, src ir.BlockID, st *cache.State) {
	switch e.opts.Strategy {
	case StrategyMergeAtRollback:
		e.joinS(c.otherSucc, st)
	case StrategyJustInTime:
		if c.otherSucc == c.stop {
			// Degenerate diamond: the other side is the merge point itself.
			e.joinS(c.otherSucc, st)
			return
		}
		e.joinSS(c.otherSucc, e.partFor(c, -1), st)
	case StrategyPerRollbackBlock:
		if c.otherSucc == c.stop {
			e.joinS(c.otherSucc, st)
			return
		}
		e.joinSS(c.otherSucc, e.partFor(c, src), st)
	}
}

// blockSlice is the cached branchSlice result for one condbr block, plus
// the positions of the slice loads among the block's architectural verdict
// slots.
type blockSlice struct {
	loads    map[int]bool
	resolved bool
	at       []int32
}

// branchSlice computes the backward slice of a block's branch condition
// within the block: the load instruction ids feeding the condition, and
// whether the condition is fully resolved by in-block computation. It is
// purely structural (state-independent), so the per-set grouping can use it
// to find the cache sets the §6.2 depth decision depends on.
func branchSlice(block *ir.Block) (sliceLoads map[int]bool, resolved bool) {
	t := block.Terminator()
	if t.A.IsConst {
		return nil, true
	}
	needed := map[ir.Reg]bool{t.A.Reg: true}
	sliceLoads = map[int]bool{}
	for i := len(block.Instrs) - 2; i >= 0; i-- {
		in := &block.Instrs[i]
		if !writesDst(in.Op) || !needed[in.Dst] {
			continue
		}
		delete(needed, in.Dst)
		if in.Op == ir.OpLoad {
			sliceLoads[in.ID] = true
			if !in.Idx.IsConst {
				needed[in.Idx.Reg] = true
			}
			continue
		}
		for _, v := range regOperands(in) {
			needed[v] = true
		}
	}
	// Unresolved register reads mean the condition depends on values computed
	// before this block; we cannot cheaply prove the resolving loads hit.
	return sliceLoads, len(needed) == 0
}

// locateSliceLoads records where each branch slice's loads sit among its
// block's architectural verdict slots. It runs when the fixpoint starts,
// after any caller has swapped the access maps (AnalyzeInstructionCache).
func (e *engine) locateSliceLoads() {
	for _, b := range e.prog.Blocks {
		bs, ok := e.slices[b.ID]
		if !ok {
			continue
		}
		bs.at = bs.at[:0]
		for k, step := range e.slots(b, false) {
			if bs.loads[step.In.ID] {
				bs.at = append(bs.at, int32(k))
			}
		}
		e.slices[b.ID] = bs
	}
}

// depthTestHook, when non-nil, observes every live §6.2 decision with the
// flow's in-state; tests use it to check decisions against a re-walk.
var depthTestHook func(e *engine, block *ir.Block, src *cache.State, depth int)

// depthFor implements §6.2: use b_h when every load feeding the branch
// condition (within the branch block) is proved a must-hit against the
// source state, b_m otherwise. The source flow's walk through the block has
// just judged those loads, each against the state right before it, into the
// verdicts at off, so the decision is a lookup. As the fixpoint weakens
// states, the choice can only move from b_h to b_m, so convergence is
// monotone. Engines running behind a depth oracle look the flow's converged
// depth up instead (their set filter does not cover the branch-slice loads'
// state).
func (e *engine) depthFor(block *ir.Block, src *cache.State, fk flowKey, off int32) int {
	if !e.opts.DynamicDepthBounding {
		return e.opts.DepthMiss
	}
	if e.oracle != nil {
		if d, ok := e.oracle[depthKey{block: block.ID, flow: fk}]; ok {
			return d
		}
		return e.opts.DepthMiss
	}
	d, hit := e.sliceDepth(block.ID, off)
	// Count only live decisions (not oracle lookups or recordDepths replays):
	// a decision is one §6.2 classification of the branch slice against the
	// current state, pruned to b_h on a proved must-hit.
	if hit {
		e.stats.DepthHitBounds++
	} else {
		e.stats.DepthMissBounds++
	}
	if depthTestHook != nil {
		depthTestHook(e, block, src, d)
	}
	return d
}

// sliceDepth reads the §6.2 decision for branch block b off a flow's
// verdicts at off, plus whether it pruned to the must-hit bound b_h (the
// bool disambiguates the two cases when DepthHit == DepthMiss). A live
// decision only runs where the engine owns every slice load (the dense
// engine, or the depth group), so no slice slot holds vNone there.
func (e *engine) sliceDepth(b ir.BlockID, off int32) (int, bool) {
	bs := e.slices[b]
	if !bs.resolved {
		return e.opts.DepthMiss, false
	}
	for _, k := range bs.at {
		if e.verdicts[off+k] != byte(cache.AlwaysHit) {
			return e.opts.DepthMiss, false
		}
	}
	return e.opts.DepthHit, true
}

// recordDepths reads §6.2's depth decision off the converged verdicts of
// every flow at every conditional branch, producing the oracle consumed by
// the set groups that do not own the branch-slice loads' cache sets. At the
// fixpoint the live decision equals the last one taken during iteration
// (depth choice is monotone in the state), so the recorded depths are
// exactly the ones the dense engine ends up using.
func (e *engine) recordDepths() depthOracle {
	e.settle()
	o := depthOracle{}
	for _, b := range e.prog.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Resolved {
			continue
		}
		if !e.S[b.ID].IsBottom {
			d, _ := e.sliceDepth(b.ID, e.sVerd[b.ID])
			o[depthKey{block: b.ID, flow: normalFlow}] = d
		}
		for pid, st := range e.SS[b.ID] {
			if st.IsBottom {
				continue
			}
			p := e.parts[pid]
			fk := flowKey{colorID: p.color.id, src: p.src}
			d, _ := e.sliceDepth(b.ID, e.ssVerd[ssFlow{block: b.ID, pid: pid}])
			o[depthKey{block: b.ID, flow: fk}] = d
		}
	}
	return o
}

func writesDst(op ir.Op) bool {
	switch op {
	case ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpNop, ir.OpFence:
		return false
	}
	return true
}

// regOperands returns the register operands an instruction reads (excluding
// Load, which is handled by its caller).
func regOperands(in *ir.Instr) []ir.Reg {
	var regs []ir.Reg
	add := func(v ir.Value) {
		if !v.IsConst {
			regs = append(regs, v.Reg)
		}
	}
	switch in.Op {
	case ir.OpConst, ir.OpNop, ir.OpBr, ir.OpFence:
		// no register reads
	case ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpBool, ir.OpCondBr, ir.OpRet:
		add(in.A)
	case ir.OpStore:
		add(in.A)
		add(in.Idx)
	default: // binops
		add(in.A)
		add(in.B)
	}
	return regs
}

// resultTestHook, when non-nil, observes every engine's Result as result
// returns it (per set group when partitioned, before stitching).
var resultTestHook func(e *engine, res *Result)

// result assembles the Result from the fixpoint states and the verdicts the
// fixpoint's own walks recorded.
func (e *engine) result() *Result {
	res := &Result{
		Prog:       e.prog,
		Graph:      e.g,
		Layout:     e.l,
		Opts:       e.opts,
		In:         e.S,
		SpecIn:     e.SS,
		Access:     map[int]AccessInfo{},
		SpecAccess: map[int]cache.Classification{},
		Iterations: e.iter,
		Branches:   e.prog.CondBranchCount(),
		Colors:     len(e.colors),
		domain:     e.dom,
		idx:        e.idx,
	}
	res.PoolStats = e.pool.Stats()
	e.stats.Iterations = int64(e.iter)
	e.stats.Colors = int64(len(e.colors))
	e.stats.StatesPooled = int64(res.PoolStats.Reused())
	res.Stats = e.stats
	for _, c := range e.colors {
		res.Flows = append(res.Flows, SpecFlow{
			Branch:    c.branch,
			Predicted: c.predicted,
			SpecSucc:  c.specSucc,
			OtherSucc: c.otherSucc,
			Stop:      c.stop,
		})
	}
	e.settle()
	e.classify(res)
	if resultTestHook != nil {
		resultTestHook(e, res)
	}
	return res
}

// settle walks the SS flows parked at their vn_stop — process joins those
// into S without walking them — so that every live flow has verdicts from
// its converged state. It runs once, after the fixpoint, and counts no
// transfers.
func (e *engine) settle() {
	if e.settled {
		return
	}
	e.settled = true
	st := e.pool.Get()
	defer e.pool.Put(st)
	for _, b := range e.prog.Blocks {
		for pid, ss := range e.SS[b.ID] {
			if ss.IsBottom || e.parts[pid].color.stop != b.ID {
				continue
			}
			vs, _ := e.ssVec(b, pid)
			st.CopyFrom(ss)
			e.walkArch(b, st, vs)
		}
	}
}

// classify combines the stored verdicts per access: an access is
// always-hit only if it is always-hit on the normal flow and on every
// speculative flow passing through it (any disagreement is Unknown). Slots
// outside the engine's set filter hold vNone and are not recorded; their
// verdicts belong to the engine owning their sets.
func (e *engine) classify(res *Result) {
	for _, b := range e.prog.Blocks {
		arch := e.slots(b, false)
		judgeArch := func(off int32) {
			for k, v := range e.verdicts[off : off+int32(len(arch))] {
				if v == vNone {
					continue
				}
				in, cls := arch[k].In, cache.Classification(v)
				if prev, seen := res.Access[in.ID]; !seen {
					res.Access[in.ID] = AccessInfo{Instr: in, Block: b.ID, Acc: arch[k].Acc, Class: cls}
				} else if prev.Class != cls {
					prev.Class = cache.Unknown
					res.Access[in.ID] = prev
				}
			}
		}
		if !e.S[b.ID].IsBottom {
			judgeArch(e.sVerd[b.ID])
		}
		for pid, f := range e.SS[b.ID] {
			if !f.IsBottom {
				judgeArch(e.ssVerd[ssFlow{block: b.ID, pid: pid}])
			}
		}
		// Wrong-path verdicts from lanes (#SpMiss).
		spec := e.slots(b, true)
		for _, lv := range e.Lane[b.ID] {
			if lv.budget < 0 || lv.st.IsBottom {
				continue
			}
			for k, v := range e.verdicts[lv.vOff : lv.vOff+int32(len(spec))] {
				if v == vNone {
					continue
				}
				id, cls := spec[k].In.ID, cache.Classification(v)
				if prev, seen := res.SpecAccess[id]; !seen {
					res.SpecAccess[id] = cls
				} else if prev != cls {
					res.SpecAccess[id] = cache.Unknown
				}
			}
		}
	}
}
