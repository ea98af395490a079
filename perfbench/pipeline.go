package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"specabsint"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/machine"
	"specabsint/internal/mitigate"
	"specabsint/internal/obs"
	"specabsint/internal/passes"
	"specabsint/internal/sidechannel"
	"specabsint/internal/source"
	"specabsint/internal/wcet"
)

// geometry is the cache model and engine a workload analyzes under.
type geometry struct {
	Cache specabsint.CacheConfig
	// Par is WithSetParallelism's worker count; 0 runs the dense engine.
	Par int
}

var (
	paperGeometry = geometry{Cache: specabsint.PaperCache()}
	// setAssocCache is 64 sets x 8 ways of 64 B: the same 32 KiB as the
	// paper's cache, split so the per-set partition engine has work.
	setAssocCache = specabsint.CacheConfig{LineSize: 64, NumSets: 64, Assoc: 8}
)

func (g geometry) paper() bool { return g.Cache == specabsint.PaperCache() && g.Par == 0 }

func (g geometry) options() []specabsint.Option {
	return []specabsint.Option{specabsint.WithCache(g.Cache), specabsint.WithSetParallelism(g.Par)}
}

// coreOptions is the layer-level equivalent of options on top of the
// defaults; the check pass proves the two configurations agree.
func (g geometry) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.Cache = g.Cache
	o.SetParallelism = g.Par
	return o
}

// leak is one reported side channel, as both APIs expose it.
type leak struct {
	Line  int    `json:"line"`
	Sym   string `json:"sym"`
	Store bool   `json:"store"`
	Class int    `json:"class"`
}

// summary is the comparable projection of one verdict, computed the same
// way from a public Report and from the layer pipeline's results. Digest
// covers every access's classification, so two summaries with equal
// digests are the same verdict.
type summary struct {
	Accesses   int    `json:"accesses"`
	Unknown    int    `json:"unknown"`
	Misses     int    `json:"misses"`
	SpecMisses int    `json:"spec_misses"`
	WCET       int64  `json:"wcet"` // worst case + speculative charge, -1 when unbounded
	Leaks      []leak `json:"leaks"`
	Gadgets    int    `json:"gadgets"`
	Digest     string `json:"digest"`
}

type digester struct {
	h hash.Hash
	s summary
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) access(line int, sym string, store bool, class, spec specabsint.Classification, reached bool) {
	d.s.Accesses++
	if class == specabsint.Unknown {
		d.s.Unknown++
	}
	fmt.Fprintf(d.h, "a %d %s %t %d %d %t\n", line, sym, store, class, spec, reached)
}

func (d *digester) leak(l leak) {
	d.s.Leaks = append(d.s.Leaks, l)
	fmt.Fprintf(d.h, "l %d %s %t %d\n", l.Line, l.Sym, l.Store, l.Class)
}

func (d *digester) gadget(line int, sym string) {
	d.s.Gadgets++
	fmt.Fprintf(d.h, "g %d %s\n", line, sym)
}

func (d *digester) finish(misses, specMisses int, est wcet.Estimate) summary {
	d.s.Misses, d.s.SpecMisses = misses, specMisses
	d.s.WCET = -1
	if est.WorstCaseCycles >= 0 {
		d.s.WCET = est.WorstCaseCycles + est.SpecExtraCycles
	}
	fmt.Fprintf(d.h, "m %d %d %d %+v\n", misses, specMisses, d.s.WCET, est)
	d.s.Digest = hex.EncodeToString(d.h.Sum(nil))
	return d.s
}

// reportSummary projects a public Report.
func reportSummary(r *specabsint.Report) summary {
	d := newDigester()
	for _, a := range r.Accesses {
		d.access(a.Line, a.Symbol, a.Store, a.Class, a.SpecClass, a.SpecReached)
	}
	for _, l := range r.Leaks {
		d.leak(leak{Line: l.Line, Sym: l.Symbol, Store: l.Store, Class: int(l.Class)})
	}
	for _, g := range r.SpectreGadgets {
		d.gadget(g.Line, g.Symbol)
	}
	return d.finish(r.Misses, r.SpecMisses, r.WCET)
}

// layerSummary projects the layer pipeline's results.
func layerSummary(prog *ir.Program, rep *sidechannel.Report, est wcet.Estimate) summary {
	res := rep.Analysis
	ids := make([]int, 0, len(res.Access))
	for id := range res.Access {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	d := newDigester()
	for _, id := range ids {
		info := res.Access[id]
		spec, reached := res.SpecAccess[id]
		d.access(info.Instr.Line, prog.Symbol(info.Instr.Sym).Name, info.Instr.Op == ir.OpStore,
			info.Class, spec, reached)
	}
	for _, l := range rep.Leaks {
		d.leak(leak{Line: l.Line, Sym: l.Sym, Store: l.Store, Class: int(l.Class)})
	}
	for _, g := range rep.SpectreLeaks {
		d.gadget(g.Line, g.Sym)
	}
	return d.finish(res.MissCount(), res.SpecMissCount(), est)
}

// repairSummary is the comparable projection of one Mitigate run.
type repairSummary struct {
	Fences   []string `json:"fences"`
	Residual int      `json:"residual"`
	Analyses int      `json:"analyses"`
	Traces   int      `json:"traces"`
	Verified bool     `json:"verified"`
	Skipped  bool     `json:"skipped"`
}

func fenceKey(block string, index, line int, sym string) string {
	return fmt.Sprintf("%s:%d:%d:%s", block, index, line, sym)
}

// opResult is one analysis (and repair) of one program. Its times are CPU
// time (see cpuNanos), except WallNs.
type opResult struct {
	Program   string         `json:"program"`
	VerdictNs int64          `json:"verdict_ns"` // compile + analyze
	RepairNs  int64          `json:"repair_ns"`
	OpNs      int64          `json:"op_ns"`   // the whole op
	WallNs    int64          `json:"wall_ns"` // the whole op, by the wall clock
	Sum       summary        `json:"summary"`
	Repair    *repairSummary `json:"repair,omitempty"`
	// Violations counts simulator replay accesses the analysis certified
	// always-hit that missed (check ops only).
	Violations int    `json:"violations"`
	Err        string `json:"err,omitempty"`
	// OpReps, VerdictReps and WallReps are the per-repetition times of a
	// contained op that its child repeated (see childSpec.MinNs); OpNs,
	// VerdictNs and WallNs are then their medians.
	OpReps      []int64 `json:"op_reps,omitempty"`
	VerdictReps []int64 `json:"verdict_reps,omitempty"`
	WallReps    []int64 `json:"wall_reps,omitempty"`
	// Capped marks a contained op killed at the memory or time cap.
	Capped   bool    `json:"capped,omitempty"`
	MaxRSSKB int64   `json:"max_rss_kb,omitempty"` // contained ops
	Spans    []*span `json:"spans,omitempty"`      // recorded by a contained child
}

func (r *opResult) ok() bool { return r.Err == "" && !r.Capped }

// samples are the op's timed repetitions, (op, verdict) in milliseconds:
// the child's repetitions for a repeated contained op, else the op itself.
func (r *opResult) samples() (ops, verdicts []float64) {
	if len(r.OpReps) == 0 {
		return []float64{ms(r.OpNs)}, []float64{ms(r.VerdictNs)}
	}
	for i := range r.OpReps {
		ops = append(ops, ms(r.OpReps[i]))
		verdicts = append(verdicts, ms(r.VerdictReps[i]))
	}
	return ops, verdicts
}

// opFlags selects what one op does beyond compile + analyze.
type opFlags struct {
	repair bool // Mitigate the program
	check  bool // replay it on the simulator
	// layers runs the layer pipeline even without a tracer: a traced run's
	// untraced passes take the same path as its traced ones, so the two
	// differ only by the tracing.
	layers bool
}

// runOp analyzes p under g. Check ops, traced ops and every op of a traced
// run go through the layer pipeline, so every layer call can be timed and
// the verdict replayed; the ops of an untraced run go through the root API
// a user calls.
func runOp(ctx context.Context, tr *tracer, req int64, p program, g geometry, f opFlags) opResult {
	t0, w0 := cpuNanos(), wallNanos()
	var r opResult
	if tr != nil || f.check || f.layers {
		r = layerOp(ctx, tr, req, p, g, f)
	} else {
		r = publicOp(ctx, p, g, f)
	}
	r.OpNs, r.WallNs = cpuNanos()-t0, wallNanos()-w0
	return r
}

// publicOp runs CompileOpts + AnalyzeContext (+ Mitigate).
func publicOp(ctx context.Context, p program, g geometry, f opFlags) opResult {
	out := opResult{Program: p.Name}
	now := cpuNanos
	t0 := now()
	cp, err := specabsint.CompileOpts(p.Src)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	rep, err := specabsint.AnalyzeContext(ctx, cp, g.options()...)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.VerdictNs = now() - t0
	out.Sum = reportSummary(rep)
	if f.repair {
		t1 := now()
		m, err := specabsint.Mitigate(ctx, cp, g.options()...)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.RepairNs = now() - t1
		rs := &repairSummary{Residual: m.ResidualLeaks, Analyses: m.Analyses, Traces: m.Traces,
			Verified: m.Verified, Skipped: m.VerifySkipped}
		for _, fp := range m.Fences {
			rs.Fences = append(rs.Fences, fenceKey(fp.Block, fp.Index, fp.Line, fp.Symbol))
		}
		out.Repair = rs
	}
	return out
}

// cpuNanos is the CPU time this process has used, user and system, across
// all its threads. The benchmark times ops by it rather than by the wall
// clock: on a shared virtual machine the hypervisor steals slices of wall
// time (a sixth to a quarter of it for a minute at a time), while CPU time
// counts only the slices the analysis ran. A partitioned analysis, whose
// workers wait for each other, loses two to three times the stolen share
// in wall time, and a serial one agrees with its wall time on an idle
// machine, apart from garbage collection on other threads, which CPU time
// includes. What fanning out over threads buys is wall time, so the pass
// time of the partition engine is by the wall clock (opResult.WallNs).
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// wallNanos is the monotonic wall clock.
func wallNanos() int64 { return time.Since(epoch).Nanoseconds() }

var epoch = time.Now()

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerOp runs the same analysis as publicOp one layer at a time, with a
// span around each call: source.Parse, lower.Lower, passes.Run,
// sidechannel.AnalyzeContext (whose core.AnalyzeContext share comes from
// the program's own fixpoint phase timer), wcet.New, mitigate.Synthesize
// and the simulator replay.
func layerOp(ctx context.Context, tr *tracer, req int64, p program, g geometry, f opFlags) opResult {
	out := opResult{Program: p.Name}
	root := tr.begin(0, req, "bench", "op")
	defer tr.end(root)
	fail := func(err error) opResult {
		out.Err = err.Error()
		return out
	}
	now := cpuNanos
	t0 := now()
	sp := tr.begin(root.id(), req, "source", "source.Parse")
	ast, err := source.Parse(p.Src)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin(root.id(), req, "lower", "lower.Lower")
	prog, err := lower.Lower(ast, lower.DefaultOptions())
	if err != nil {
		tr.end(sp)
		return fail(err)
	}
	tr.end(sp, "ir_instrs", prog.InstrCount())
	sp = tr.begin(root.id(), req, "passes", "passes.Run")
	pres, err := passes.Run(prog, passes.Default())
	if err != nil {
		tr.end(sp)
		return fail(err)
	}
	tr.end(sp, "instrs_removed", pres.NopsInserted)

	copts := g.coreOptions()
	col := obs.NewCollector()
	copts.Collector = col
	var alloc0 uint64
	if tr != nil {
		alloc0 = heapAllocBytes()
	}
	sp = tr.begin(root.id(), req, "sidechannel", "sidechannel.AnalyzeContext")
	rep, err := sidechannel.AnalyzeContext(ctx, prog, copts)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		var fixNs int64
		for _, ph := range col.Snapshot().Phases {
			if ph.Name == "fixpoint" {
				fixNs += ph.Nanos
			}
		}
		st, part := rep.Analysis.Stats, rep.Analysis.Partition
		tr.derive(sp, "core", "core.AnalyzeContext", sp.Start+fixNs, fixNs,
			"transfers", st.Transfers+st.SpecTransfers,
			"iterations", st.Iterations,
			"joins", st.Joins, "join_changes", st.JoinChanges,
			"lanes_spawned", st.LanesSpawned, "lanes_skipped", st.LanesSkippedCertain,
			"engines", part.Engines, "groups", part.Groups,
			"alloc_bytes", int64(heapAllocBytes()-alloc0))
	}
	sp = tr.begin(root.id(), req, "wcet", "wcet.New")
	est := wcet.New(rep.Analysis, wcet.DefaultCosts())
	tr.end(sp)
	out.VerdictNs = now() - t0
	out.Sum = layerSummary(prog, rep, est)

	if f.repair {
		mopts := mitigate.DefaultOptions()
		mopts.Core = g.coreOptions()
		t1 := now()
		sp = tr.begin(root.id(), req, "mitigate", "mitigate.Synthesize")
		m, err := mitigate.Synthesize(ctx, prog, mopts)
		if err != nil {
			tr.end(sp)
			return fail(err)
		}
		tr.end(sp, "analyses", m.Analyses, "traces", m.Traces)
		out.RepairNs = now() - t1
		rs := &repairSummary{Residual: m.ResidualLeaks, Analyses: m.Analyses, Traces: m.Traces,
			Verified: m.Verified, Skipped: m.VerifySkipped}
		for _, fe := range m.Fences {
			rs.Fences = append(rs.Fences, fenceKey(fe.Label, fe.Index, fe.Line, fe.Symbol))
		}
		out.Repair = rs
	}
	if f.check {
		sp = tr.begin(root.id(), req, "machine", "machine.Run")
		v, err := replay(prog, rep.Analysis, g)
		tr.end(sp, "violations", v)
		if err != nil {
			return fail(err)
		}
		out.Violations = v
	}
	return out
}

// replay runs prog on the concrete speculative simulator with every branch
// mispredicted and counts accesses the analysis certified always-hit that
// missed, architecturally or on a wrong path.
func replay(prog *ir.Program, res *core.Result, g geometry) (int, error) {
	mc := machine.DefaultConfig()
	mc.Cache = g.Cache
	mc.ForceMispredict = true
	sim, err := machine.New(prog, mc)
	if err != nil {
		return 0, fmt.Errorf("simulator: %w", err)
	}
	violations := 0
	sim.OnAccess = func(a machine.AccessRecord) {
		if a.Hit {
			return
		}
		cls, ok := res.ClassOf(a.InstrID)
		if a.Speculative {
			cls, ok = res.SpecAccess[a.InstrID]
		}
		if ok && cls == specabsint.AlwaysHit {
			violations++
		}
	}
	if err := sim.Run(); err != nil {
		return 0, fmt.Errorf("simulator: %w", err)
	}
	return violations, nil
}

// problems lists how r contradicts what is known about p; empty means r is
// right as far as the benchmark can tell.
func (p program) problems(g geometry, r *opResult, o *options) []string {
	if !r.ok() {
		return nil // a failure, not a wrong answer
	}
	var out []string
	bad := func(format string, args ...any) { out = append(out, p.Name+": "+fmt.Sprintf(format, args...)) }
	if p.Fig2 && g.paper() {
		wantMiss := 514
		if o.injectWrong {
			wantMiss = 513
		}
		if r.Sum.Misses != wantMiss || r.Sum.SpecMisses != 3 {
			bad("#Miss %d #SpMiss %d, paper: %d and 3", r.Sum.Misses, r.Sum.SpecMisses, wantMiss)
		}
		if len(r.Sum.Leaks) != 1 || r.Sum.Leaks[0].Sym != "ph" {
			bad("leaks %v, paper: one, at ph[k]", r.Sum.Leaks)
		}
		if r.Repair != nil && len(r.Repair.Fences) != 2 {
			bad("%d fences synthesized, want 2", len(r.Repair.Fences))
		}
	}
	if p.WantLeak != nil && (len(r.Sum.Leaks) > 0) != *p.WantLeak {
		bad("leak verdict %v, Table 7: %v", len(r.Sum.Leaks) > 0, *p.WantLeak)
	}
	if r.Repair != nil {
		if r.Repair.Residual != 0 {
			bad("%d residual leaks after Mitigate", r.Repair.Residual)
		}
		if !r.Repair.Verified && !r.Repair.Skipped {
			bad("Mitigate verification failed")
		}
	}
	if r.Violations > 0 {
		bad("%d always-hit accesses missed in the simulator replay", r.Violations)
	}
	return out
}

var numCPU = runtime.NumCPU()
