package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/bytecode"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/gen"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/passes"
)

// This file implements classification as a post-fixpoint re-walk of every
// normal, SS and lane flow through every block, and the §6.2 depth decision
// as a walk of the branch block from the flow's in-state — the direct
// reading of Algorithms 2-3 — as test-only references, and checks that the
// verdicts the engine records during the fixpoint's own walks reproduce
// them exactly.

// refClassify re-walks every flow of a converged engine through every block,
// combining per-access verdicts: all flows agree, else Unknown. Under a set
// filter only owned accesses are judged.
func refClassify(e *engine) (map[int]AccessInfo, map[int]cache.Classification) {
	access := map[int]AccessInfo{}
	spec := map[int]cache.Classification{}
	st := cache.NewState(e.l.NumBlocks)
	for _, b := range e.prog.Blocks {
		var flows []*cache.State
		if !e.S[b.ID].IsBottom {
			flows = append(flows, e.S[b.ID])
		}
		for _, f := range e.SS[b.ID] {
			if !f.IsBottom {
				flows = append(flows, f)
			}
		}
		for fi, f := range flows {
			st.CopyFrom(f)
			for i := range b.Instrs {
				in := &b.Instrs[i]
				acc, ok := e.access[in.ID]
				if !ok || !e.dom.Owns(acc) {
					continue
				}
				cls := e.dom.Classify(st, acc)
				if fi == 0 {
					access[in.ID] = AccessInfo{Instr: in, Block: b.ID, Acc: acc, Class: cls}
				} else if prev := access[in.ID]; prev.Class != cls {
					prev.Class = cache.Unknown
					access[in.ID] = prev
				}
				e.dom.Transfer(st, acc)
			}
		}
		for _, lv := range e.Lane[b.ID] {
			if lv.budget < 0 || lv.st.IsBottom {
				continue
			}
			st.CopyFrom(lv.st)
			budget := lv.budget
			for i := range b.Instrs {
				if budget == 0 || b.Instrs[i].Op == ir.OpFence {
					break
				}
				budget--
				in := &b.Instrs[i]
				acc, ok := e.accessSpec[in.ID]
				if !ok || !e.dom.Owns(acc) {
					continue
				}
				cls := e.dom.Classify(st, acc)
				if prev, seen := spec[in.ID]; !seen {
					spec[in.ID] = cls
				} else if prev != cls {
					spec[in.ID] = cache.Unknown
				}
				e.dom.Transfer(st, acc)
			}
		}
	}
	return access, spec
}

// refDepthForLive walks block from src, classifying each branch-slice load
// against the state just before it: b_h iff all are must-hits.
func refDepthForLive(e *engine, block *ir.Block, src *cache.State) int {
	loads, resolved := branchSlice(block)
	if !resolved {
		return e.opts.DepthMiss
	}
	st := src.Clone()
	for i := range block.Instrs {
		in := &block.Instrs[i]
		acc, ok := e.access[in.ID]
		if !ok {
			continue
		}
		if loads[in.ID] && e.dom.Classify(st, acc) != cache.AlwaysHit {
			return e.opts.DepthMiss
		}
		e.dom.Transfer(st, acc)
	}
	return e.opts.DepthHit
}

// refRecordDepths is recordDepths on top of refDepthForLive.
func refRecordDepths(e *engine) depthOracle {
	o := depthOracle{}
	for _, b := range e.prog.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Resolved {
			continue
		}
		if !e.S[b.ID].IsBottom {
			o[depthKey{block: b.ID, flow: normalFlow}] = refDepthForLive(e, b, e.S[b.ID])
		}
		for pid, st := range e.SS[b.ID] {
			if st.IsBottom {
				continue
			}
			p := e.parts[pid]
			fk := flowKey{colorID: p.color.id, src: p.src}
			o[depthKey{block: b.ID, flow: fk}] = refDepthForLive(e, b, st)
		}
	}
	return o
}

// refMu serializes installs of the package-level test hooks.
var refMu sync.Mutex

// checkAgainstReWalk runs analyze with both test hooks installed and fails
// t unless every live depth decision, every engine's Access and SpecAccess,
// and every live-deciding engine's recorded depths match the references.
func checkAgainstReWalk(t testing.TB, label string, analyze func() (*Result, error)) {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 5 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	engines := 0
	depthTestHook = func(e *engine, block *ir.Block, src *cache.State, depth int) {
		if want := refDepthForLive(e, block, src); depth != want {
			fail("block %d: live depth %d, re-walk says %d", block.ID, depth, want)
		}
	}
	resultTestHook = func(e *engine, res *Result) {
		mu.Lock()
		engines++
		mu.Unlock()
		access, spec := refClassify(e)
		if !reflect.DeepEqual(res.Access, access) {
			fail("Access differs from the re-walk (%d vs %d entries)", len(res.Access), len(access))
		}
		if !reflect.DeepEqual(res.SpecAccess, spec) {
			fail("SpecAccess differs from the re-walk (%d vs %d entries)", len(res.SpecAccess), len(spec))
		}
		if e.opts.Speculative && e.opts.DynamicDepthBounding && e.oracle == nil {
			if got, want := e.recordDepths(), refRecordDepths(e); !reflect.DeepEqual(got, want) {
				fail("recorded depths differ from the re-walk:\n got %v\nwant %v", got, want)
			}
		}
	}
	defer func() { depthTestHook, resultTestHook = nil, nil }()
	if _, err := analyze(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if engines == 0 {
		t.Fatalf("%s: no engine result observed", label)
	}
	for _, f := range failures {
		t.Errorf("%s: %s", label, f)
	}
}

// CheckAgainstReWalk is checkAgainstReWalk over the core.AnalyzeContext
// path, for the external test package (which can import internal/mitigate).
func CheckAgainstReWalk(t testing.TB, label string, prog *ir.Program, opts Options) {
	t.Helper()
	checkAgainstReWalk(t, label, func() (*Result, error) {
		return AnalyzeContext(context.Background(), prog, opts)
	})
}

// smallSetAssocConfig is the 4-set x 4-way geometry of the reference sweep.
var smallSetAssocConfig = layout.CacheConfig{LineSize: 64, NumSets: 4, Assoc: 4}

// ReWalkConfigs is the reference sweep's configuration matrix: every merge
// strategy x scheduler x exec engine x SetParallelism {0, 2} x the paper,
// 64x8 and 4x4 geometries. At the fully associative paper geometry the
// partitioned request falls back to the dense engine, so only
// SetParallelism 0 is listed there.
func ReWalkConfigs() []Options {
	var out []Options
	for _, geom := range []layout.CacheConfig{layout.PaperConfig(), setAssocConfig, smallSetAssocConfig} {
		for _, strat := range []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock} {
			for _, sched := range []Scheduler{SchedulerWTO, SchedulerWorklist} {
				for _, exec := range []bytecode.ExecMode{bytecode.ExecCompiled, bytecode.ExecInterp} {
					for _, par := range []int{0, 2} {
						if par > 0 && geom.NumSets == 1 {
							continue
						}
						opts := DefaultOptions()
						opts.Cache = geom
						opts.Strategy = strat
						opts.Scheduler = sched
						opts.Exec = exec
						opts.SetParallelism = par
						out = append(out, opts)
					}
				}
			}
		}
	}
	return out
}

// ConfigLabel names one ReWalkConfigs entry.
func ConfigLabel(opts Options) string {
	return fmt.Sprintf("%dx%d/%v/%v/%v/par%d", opts.Cache.NumSets, opts.Cache.Assoc,
		opts.Strategy, opts.Scheduler, opts.Exec, opts.SetParallelism)
}

// CompileWithPasses compiles a benchmark source the way the public API
// does: lowering, then the default pass pipeline.
func CompileWithPasses(t testing.TB, name, code string) *ir.Program {
	t.Helper()
	prog, err := bench.Compile(code, 0)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	if _, err := passes.Run(prog, passes.Default()); err != nil {
		t.Fatalf("passes %s: %v", name, err)
	}
	return prog
}

// TestVerdictsMatchReWalkCorpus checks the recorded verdicts against the
// re-walk on the 10 WCET kernels and the 10 crypto clients over the whole
// configuration matrix (Fig. 2 runs in the variants test). susan is skipped
// when partitioned: its per-set engines exhaust memory at 64x8.
func TestVerdictsMatchReWalkCorpus(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus sweep is too slow under the race detector")
	}
	var progs []bench.Benchmark
	progs = append(progs, bench.WCETBenchmarks()...)
	progs = append(progs, bench.CryptoBenchmarks()...)
	compiled := make([]*ir.Program, len(progs))
	for i, b := range progs {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		compiled[i] = CompileWithPasses(t, b.Name, code)
	}
	for _, opts := range ReWalkConfigs() {
		for i, b := range progs {
			if b.Name == "susan" && opts.SetParallelism > 0 {
				continue
			}
			CheckAgainstReWalk(t, b.Name+" "+ConfigLabel(opts), compiled[i], opts)
		}
	}
}

// TestVerdictsMatchReWalkRandom runs the matrix on 40 generated programs.
func TestVerdictsMatchReWalkRandom(t *testing.T) {
	n := 40
	if raceDetectorOn || testing.Short() {
		n = 4
	}
	rng := rand.New(rand.NewSource(20261017))
	for seed := 0; seed < n; seed++ {
		cfg := gen.Default()
		if seed%3 == 1 {
			cfg = gen.Fenced()
		}
		prog := compile(t, gen.Program(rng, cfg))
		for _, opts := range ReWalkConfigs() {
			CheckAgainstReWalk(t, fmt.Sprintf("gen %d %s", seed, ConfigLabel(opts)), prog, opts)
		}
	}
}

// parkedDiamondSource has a diamond whose arms both hold code, so the
// just-in-time SS flow of its branch travels through the other arm and parks
// at the vn_stop — a block that itself ends in a branch on a preloaded
// table, making that parked flow's §6.2 decision a must-hit.
const parkedDiamondSource = `
int t[4];
int a[64];
char p;
int main() {
	reg int x;
	reg int y;
	x = t[0];
	if (p == 0) { y = a[1]; } else { y = a[40]; }
	x = t[0];
	if (x > 3) { y = a[20]; } else { y = a[60]; }
	return y;
}`

// TestVerdictsMatchReWalkVariants covers the other entry points and the
// parked-flow diamond: AnalyzeInstructionCache swaps in fetch-based access
// maps after newEngine, AnalyzePersistence swaps the domain, and the diamond
// makes settle's walk of a parked SS flow the only source of one recorded
// depth.
func TestVerdictsMatchReWalkVariants(t *testing.T) {
	diamond := compile(t, parkedDiamondSource)
	progs := map[string]*ir.Program{"diamond": diamond, "fig2": compile(t, fig2Source)}
	for name, prog := range progs {
		for _, opts := range ReWalkConfigs() {
			label := name + " " + ConfigLabel(opts)
			CheckAgainstReWalk(t, label, prog, opts)
			if opts.SetParallelism > 0 {
				continue
			}
			checkAgainstReWalk(t, label+" icache", func() (*Result, error) {
				return AnalyzeInstructionCache(prog, opts)
			})
			checkAgainstReWalk(t, label+" persist", func() (*Result, error) {
				return AnalyzePersistence(prog, opts)
			})
		}
	}

	// The diamond must actually park an SS flow at a branch block whose
	// recorded depth is the must-hit bound.
	opts := DefaultOptions()
	l, err := layout.New(diamond, opts.Cache)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.New(diamond)
	e := newEngine(diamond, g, l, interval.Analyze(g), opts)
	if err := e.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	oracle := e.recordDepths()
	parked := 0
	for _, b := range diamond.Blocks {
		for pid, st := range e.SS[b.ID] {
			p := e.parts[pid]
			if st.IsBottom || p.color.stop != b.ID {
				continue
			}
			key := depthKey{block: b.ID, flow: flowKey{colorID: p.color.id, src: p.src}}
			if d, ok := oracle[key]; ok && d == opts.DepthHit {
				parked++
			}
		}
	}
	if parked == 0 {
		t.Fatalf("diamond: no SS flow parked at a branching vn_stop with a must-hit depth")
	}
}
