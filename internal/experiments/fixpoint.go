package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/bytecode"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/mitigate"
	"specabsint/internal/passes"
)

// FixpointBaseline records the seed engine's cost on the reference kernel,
// measured before the pooled fixpoint core landed (same kernel, same paper
// options, same container class). BENCH_fixpoint.json carries it next to the
// current numbers so the perf trajectory is visible in one file.
var FixpointBaseline = FixpointSample{
	NsPerOp:     324_000_000,
	AllocsPerOp: 191_184,
}

// FixpointSample is one measurement of the full speculative fixpoint.
type FixpointSample struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

// BenchMeta identifies the environment a benchmark report was produced in.
// Without it, ns/op entries recorded on different machines or toolchains are
// silently incomparable; with it, a regression can be told apart from a
// hardware change.
type BenchMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision baked in by the Go toolchain (empty when the
	// binary was built outside version control); "-dirty" marks uncommitted
	// changes.
	Commit string `json:"commit,omitempty"`
	// Scheduler is the fixpoint scheduler the headline measurements ran
	// under ("wto" or "worklist"); the schedulers section below always
	// measures both, so this only disambiguates Now/WithPasses.
	Scheduler string `json:"scheduler,omitempty"`
	// Exec is the execution engine the headline measurements ran under
	// ("compiled" or "interp"); the exec section below always measures
	// both, so this only disambiguates Now/WithPasses.
	Exec string `json:"exec,omitempty"`
	// PassConfig lists the enabled analysis-preserving passes of the
	// measured pipeline configuration, in execution order.
	PassConfig []string `json:"pass_config,omitempty"`
}

// NewBenchMeta samples the current process's environment.
func NewBenchMeta() BenchMeta {
	m := BenchMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if m.Commit != "" && modified {
			m.Commit += "-dirty"
		}
	}
	return m
}

// FixpointReport is the machine-readable output of the fixpoint benchmark.
type FixpointReport struct {
	Kernel string `json:"kernel"`
	Rounds int    `json:"rounds"`
	// Meta records the environment the numbers were measured in.
	Meta BenchMeta `json:"meta"`
	// Now measures the engine on the raw lowered IR (passes off) — the same
	// configuration Baseline was recorded under, keeping the pre-pooling
	// comparison apples-to-apples across PRs.
	Now FixpointSample `json:"now"`
	// Baseline is the pre-pooling seed engine on the same kernel/options.
	Baseline FixpointSample `json:"baseline"`
	// AllocRatio is baseline allocs/op over current allocs/op (higher is
	// better; the PR's acceptance bar was >= 5).
	AllocRatio float64 `json:"alloc_ratio"`
	// WithPasses measures the same fixpoint on the pass-pipeline output
	// (SCCP + copy propagation + branch resolution + DCE): resolved branches
	// spawn no speculative colors, so the engine solves a smaller flow
	// system for byte-identical-or-tighter classifications.
	WithPasses FixpointSample `json:"with_passes"`
	// PassesSpeedup is Now ns/op over WithPasses ns/op (>= 1 means the
	// pipeline pays for itself; the transform runs once, the fixpoint many
	// iterations).
	PassesSpeedup float64 `json:"passes_speedup"`
	// PassesIterations is the transformed fixpoint's worklist block count,
	// next to Iterations for the untransformed one.
	PassesIterations int `json:"passes_iterations"`
	// ResolvedKernel shows the pipeline on the corpus kernel where branch
	// resolution fires hardest; g72 has no statically-decided branches, so
	// its speedup hovers at 1.0x and this is where the lane reduction pays.
	ResolvedKernel *ResolvedKernelDemo `json:"resolved_kernel,omitempty"`
	// Schedulers compares the fixpoint schedulers on the branch-heavy
	// corpus slice (see SchedulerSlice).
	Schedulers *SchedulerComparison `json:"schedulers,omitempty"`
	// Execs compares the bytecode-compiled engine against the tree-walking
	// interpreter on the loop-carrying corpus slice (see ExecSlice).
	Execs *ExecComparison `json:"execs,omitempty"`
	// Mitigation sweeps the fence synthesizer over the corpus: one row per
	// leak-reporting kernel, recording the synthesized fence count, the
	// residual, and the WCET overhead the repair costs.
	Mitigation *MitigationSummary `json:"mitigation,omitempty"`
	// StatesPooledPerOp counts scratch states served from the engine's free
	// list instead of the heap, per analysis.
	StatesPooledPerOp int `json:"states_pooled_per_op"`
	// Iterations is the fixpoint's worklist block count (a determinism
	// canary: it must not vary run to run).
	Iterations int `json:"iterations"`
}

// SchedulerSlice is the branch-heavy corpus slice the scheduler comparison
// measures: every corpus kernel whose simplified CFG retains loops after
// unrolling (where the WTO's stabilize-inner-first discipline can pay —
// deepest in adpcm, g72, jcphuff), plus the two large acyclic guard-chain
// kernels (jcmarker, susan) as break-even controls — on an acyclic CFG both
// schedulers degenerate to the same reverse-postorder drain, so anything but
// 1.0x there is measurement noise.
var SchedulerSlice = []string{
	"adpcm", "g72", "jcphuff", "layer3", "jdmarker", "gtk", "vga", "ocb",
	"jcmarker", "susan",
}

// SchedulerKernelRow compares the fixpoint schedulers on one kernel. All
// three arms run the shipped two-phase engine semantics except Legacy, which
// is the pre-WTO seed configuration (worklist order, uncertainty focusing
// off) kept for attribution: Worklist-vs-WTO isolates the scheduling win,
// Legacy-vs-WTO shows the whole trajectory.
type SchedulerKernelRow struct {
	Kernel string `json:"kernel"`
	// WTOComponents counts the hierarchical components of the kernel's WTO
	// (0 means the simplified CFG is loop-free).
	WTOComponents int `json:"wto_components"`
	// Legacy is the seed-equivalent ablation: worklist scheduler with the
	// uncertainty machinery disabled.
	Legacy FixpointSample `json:"legacy"`
	// Worklist and WTO are the shipped engine under each scheduler. On an
	// acyclic kernel (WTOComponents == 0) the engine routes both schedulers
	// through the same worklist code path, so the WTO arm reuses the
	// worklist measurement rather than re-timing identical code.
	Worklist FixpointSample `json:"worklist"`
	WTO      FixpointSample `json:"wto"`
	// SpeedupVsLegacy is Legacy ns/op over WTO ns/op: what the WTO schedule
	// and uncertainty focusing buy together over the seed engine.
	SpeedupVsLegacy float64 `json:"speedup_vs_legacy"`
	// SpeedupVsWorklist is Worklist ns/op over WTO ns/op: the scheduling
	// win alone, with the two-phase semantics held fixed.
	SpeedupVsWorklist float64 `json:"speedup_vs_worklist"`
	// Identical asserts the two shipped arms produced byte-identical
	// classifications (the tentpole equivalence guarantee); a false here is
	// an engine bug, not noise.
	Identical bool `json:"identical"`
}

// SchedulerComparison is the scheduler section of the fixpoint report.
type SchedulerComparison struct {
	Kernels []SchedulerKernelRow `json:"kernels"`
	// GeomeanSpeedup is the geometric mean of the per-kernel
	// SpeedupVsLegacy figures — the headline WTO+uncertainty claim.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	// GeomeanVsWorklist is the geometric mean of SpeedupVsWorklist.
	GeomeanVsWorklist float64 `json:"geomean_vs_worklist"`
}

// ExecSlice is the loop-carrying corpus slice the exec comparison measures:
// every corpus kernel whose simplified CFG retains loops after unrolling.
// Loop blocks are transferred once per fixpoint iteration, so they are where
// the compiled form's flat access-step replay (no per-instruction dispatch
// on ir.Instr kinds) pays; acyclic kernels amortize the compile over a
// single sweep and hover near break-even.
var ExecSlice = []string{
	"adpcm", "g72", "jcphuff", "layer3", "jdmarker", "gtk", "vga", "ocb",
}

// ExecKernelRow compares the execution engines on one kernel: the same
// shipped two-phase engine, once walking the IR tree (interp) and once
// replaying the bytecode-compiled access steps (compiled).
type ExecKernelRow struct {
	Kernel string `json:"kernel"`
	// Interp and Compiled time the identical analysis under each engine.
	Interp   FixpointSample `json:"interp"`
	Compiled FixpointSample `json:"compiled"`
	// SpeedupVsInterp is Interp ns/op over Compiled ns/op: what eliminating
	// the per-instruction dispatch buys, semantics held fixed.
	SpeedupVsInterp float64 `json:"speedup_vs_interp"`
	// Identical asserts the two arms produced byte-identical
	// classifications (the tentpole equivalence guarantee); a false here is
	// an engine bug, not noise.
	Identical bool `json:"identical"`
}

// ExecComparison is the execution-engine section of the fixpoint report.
type ExecComparison struct {
	Kernels []ExecKernelRow `json:"kernels"`
	// GeomeanSpeedup is the geometric mean of the per-kernel
	// SpeedupVsInterp figures — the headline compiled-engine claim.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// MitigationKernelRow is the fence synthesizer's outcome on one
// leak-reporting kernel.
type MitigationKernelRow struct {
	Kernel string `json:"kernel"`
	// BaselineLeaks / BaselineGadgets count the unfenced kernel's reported
	// cache timing leaks and Spectre transmission gadgets.
	BaselineLeaks   int `json:"baseline_leaks"`
	BaselineGadgets int `json:"baseline_gadgets"`
	// ResidualLeaks counts what survives the fence set; nonzero means the
	// remaining leaks are architectural (the classic analysis reports them
	// too) and no fence can remove them.
	ResidualLeaks int `json:"residual_leaks"`
	Fences        int `json:"fences"`
	// Analyses counts the analyses the search actually ran, the baseline
	// included (each distinct fence set once).
	Analyses int `json:"analyses"`
	// BaselineWCET / MitigatedWCET are the architectural worst-case cycle
	// bounds; omitted when the kernel's CFG is cyclic (WCETBounded false).
	BaselineWCET  int64 `json:"baseline_wcet,omitempty"`
	MitigatedWCET int64 `json:"mitigated_wcet,omitempty"`
	WCETBounded   bool  `json:"wcet_bounded"`
	// OverheadPercent is the WCET cost of the repair; negative overhead is
	// real (killing speculation also removes wrong-path misses).
	OverheadPercent float64 `json:"overhead_percent"`
}

// MitigationSummary is the fence-synthesis section of the fixpoint report.
type MitigationSummary struct {
	// Kernels holds one row per corpus kernel (plus the paper's Fig. 2
	// example) on which the analysis reports at least one leak or gadget.
	Kernels []MitigationKernelRow `json:"kernels"`
	// FullyRepaired counts rows whose residual is zero.
	FullyRepaired int `json:"fully_repaired"`
}

// ResolvedKernelDemo is the pass pipeline measured on a kernel with
// statically-decided branches: every resolved branch removes two speculative
// lanes from the flow system the fixpoint has to solve.
type ResolvedKernelDemo struct {
	Kernel           string         `json:"kernel"`
	ResolvedBranches int            `json:"resolved_branches"`
	LanesBefore      int            `json:"lanes_before"`
	LanesAfter       int            `json:"lanes_after"`
	Off              FixpointSample `json:"off"`
	On               FixpointSample `json:"on"`
	Speedup          float64        `json:"speedup"`
}

// FixpointBench measures the full speculative fixpoint on the reference
// medium kernel (g72, paper options) and returns the report. rounds <= 0
// picks enough rounds for a stable median on a quiet machine. scheduler and
// exec drive the headline Now/WithPasses measurements; schedCompare adds the
// three-arm scheduler section over the branch-heavy slice, execCompare the
// compiled-vs-interp section over the loop-carrying slice.
func FixpointBench(rounds int, scheduler core.Scheduler, exec bytecode.ExecMode, schedCompare, execCompare bool) (*FixpointReport, error) {
	const kernel = "g72"
	b, ok := bench.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", kernel)
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	// Second compile of the same kernel for the pass pipeline: the transform
	// mutates the program in place, so the passes-off measurement needs its
	// own untouched copy.
	transformed, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	if _, err := passes.Run(transformed, passes.Default()); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Scheduler = scheduler
	opts.Exec = exec

	// Warm-up runs, also the source of the pool and iteration counters.
	warm, err := core.Analyze(prog, opts)
	if err != nil {
		return nil, err
	}
	warmOn, err := core.Analyze(transformed, opts)
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 5
	}

	now, err := timeAnalyze(prog, opts, rounds)
	if err != nil {
		return nil, err
	}
	withPasses, err := timeAnalyze(transformed, opts, rounds)
	if err != nil {
		return nil, err
	}

	rep := &FixpointReport{
		Kernel:            kernel,
		Rounds:            rounds,
		Meta:              NewBenchMeta(),
		Now:               now,
		Baseline:          FixpointBaseline,
		WithPasses:        withPasses,
		PassesIterations:  warmOn.Iterations,
		StatesPooledPerOp: warm.PoolStats.Reused(),
		Iterations:        warm.Iterations,
	}
	if rep.Now.AllocsPerOp > 0 {
		rep.AllocRatio = float64(rep.Baseline.AllocsPerOp) / float64(rep.Now.AllocsPerOp)
	}
	if rep.WithPasses.NsPerOp > 0 {
		rep.PassesSpeedup = float64(rep.Now.NsPerOp) / float64(rep.WithPasses.NsPerOp)
	}
	rep.Meta.Scheduler = opts.Scheduler.String()
	rep.Meta.Exec = opts.Exec.String()
	rep.Meta.PassConfig = passNames(passes.Default())
	demo, err := resolvedKernelDemo(opts, rounds)
	if err != nil {
		return nil, err
	}
	rep.ResolvedKernel = demo
	mit, err := mitigationSummary()
	if err != nil {
		return nil, err
	}
	rep.Mitigation = mit
	if schedCompare {
		sched, err := schedulerComparison(rounds)
		if err != nil {
			return nil, err
		}
		rep.Schedulers = sched
	}
	if execCompare {
		execs, err := execComparison(rounds)
		if err != nil {
			return nil, err
		}
		rep.Execs = execs
	}
	return rep, nil
}

// passNames renders a pass configuration as the pipeline's execution order.
func passNames(o passes.Options) []string {
	var names []string
	if o.SCCP {
		names = append(names, "sccp")
	}
	if o.CopyProp {
		names = append(names, "copyprop")
	}
	if o.ResolveBranches {
		names = append(names, "resolve")
	}
	if o.DCE {
		names = append(names, "dce")
	}
	return names
}

// sameClassifications reports whether two analyses agreed on every
// architectural and speculative verdict (map printing is key-sorted, so the
// rendered forms are canonical).
func sameClassifications(a, b *core.Result) bool {
	return fmt.Sprint(a.Access) == fmt.Sprint(b.Access) &&
		fmt.Sprint(a.SpecAccess) == fmt.Sprint(b.SpecAccess)
}

// schedulerComparison measures the three scheduler arms over the
// branch-heavy slice: legacy (seed-equivalent single-pass worklist), and the
// shipped two-phase engine under each scheduler. The WTO arm's verdicts are
// checked byte-identical against the worklist arm's before timing anything —
// a speedup with different answers would be meaningless.
func schedulerComparison(rounds int) (*SchedulerComparison, error) {
	cmp := &SchedulerComparison{}
	var logLegacy, logWorklist float64
	for _, name := range SchedulerSlice {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", name)
		}
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		prog, err := bench.Compile(code, 0)
		if err != nil {
			return nil, err
		}
		legacyOpts := core.DefaultOptions()
		legacyOpts.Scheduler = core.SchedulerWorklist
		legacyOpts.DisableUncertainty = true
		wlOpts := core.DefaultOptions()
		wlOpts.Scheduler = core.SchedulerWorklist
		wtoOpts := core.DefaultOptions()

		wtoRes, err := core.Analyze(prog, wtoOpts)
		if err != nil {
			return nil, err
		}
		wlRes, err := core.Analyze(prog, wlOpts)
		if err != nil {
			return nil, err
		}
		row := SchedulerKernelRow{
			Kernel:        name,
			WTOComponents: int(wtoRes.Stats.WTOComponents),
			Identical:     sameClassifications(wtoRes, wlRes),
		}
		optsList := []core.Options{legacyOpts, wlOpts, wtoOpts}
		if row.WTOComponents == 0 {
			// Acyclic kernel: the WTO degenerates to reverse postorder and the
			// engine routes both schedulers through the identical worklist
			// code path, so timing the arm twice would only measure noise.
			// Share the measured sample; the ratio is 1.0 by construction.
			optsList = optsList[:2]
		}
		arms, err := timeArms(prog, optsList, rounds)
		if err != nil {
			return nil, err
		}
		row.Legacy, row.Worklist = arms[0], arms[1]
		row.WTO = arms[1]
		if len(arms) > 2 {
			row.WTO = arms[2]
		}
		if row.WTO.NsPerOp > 0 {
			row.SpeedupVsLegacy = float64(row.Legacy.NsPerOp) / float64(row.WTO.NsPerOp)
			row.SpeedupVsWorklist = float64(row.Worklist.NsPerOp) / float64(row.WTO.NsPerOp)
			logLegacy += math.Log(row.SpeedupVsLegacy)
			logWorklist += math.Log(row.SpeedupVsWorklist)
		}
		cmp.Kernels = append(cmp.Kernels, row)
	}
	if n := float64(len(cmp.Kernels)); n > 0 {
		cmp.GeomeanSpeedup = math.Exp(logLegacy / n)
		cmp.GeomeanVsWorklist = math.Exp(logWorklist / n)
	}
	return cmp, nil
}

// execComparison measures the execution engines over the loop-carrying
// slice: the shipped engine once under the tree-walking interpreter and once
// under the bytecode-compiled replay. The compiled arm's verdicts are checked
// byte-identical against the interpreter's before timing anything — a
// speedup with different answers would be meaningless.
func execComparison(rounds int) (*ExecComparison, error) {
	cmp := &ExecComparison{}
	var logSpeedup float64
	for _, name := range ExecSlice {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", name)
		}
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		prog, err := bench.Compile(code, 0)
		if err != nil {
			return nil, err
		}
		interpOpts := core.DefaultOptions()
		interpOpts.Exec = bytecode.ExecInterp
		compiledOpts := core.DefaultOptions()
		compiledOpts.Exec = bytecode.ExecCompiled

		compiledRes, err := core.Analyze(prog, compiledOpts)
		if err != nil {
			return nil, err
		}
		interpRes, err := core.Analyze(prog, interpOpts)
		if err != nil {
			return nil, err
		}
		row := ExecKernelRow{
			Kernel:    name,
			Identical: sameClassifications(compiledRes, interpRes),
		}
		arms, err := timeArms(prog, []core.Options{interpOpts, compiledOpts}, rounds)
		if err != nil {
			return nil, err
		}
		row.Interp, row.Compiled = arms[0], arms[1]
		if row.Compiled.NsPerOp > 0 {
			row.SpeedupVsInterp = float64(row.Interp.NsPerOp) / float64(row.Compiled.NsPerOp)
			logSpeedup += math.Log(row.SpeedupVsInterp)
		}
		cmp.Kernels = append(cmp.Kernels, row)
	}
	if n := float64(len(cmp.Kernels)); n > 0 {
		cmp.GeomeanSpeedup = math.Exp(logSpeedup / n)
	}
	return cmp, nil
}

// mitigationSummary sweeps the fence synthesizer over the corpus plus the
// paper's Fig. 2 example and records one row per kernel the analysis flags.
// SideChannel kernels get the standard 4 KiB client wrapper, matching the
// CLI drivers; clean kernels produce no row (the synthesizer is a no-op on
// them and their WCET is unchanged by construction).
func mitigationSummary() (*MitigationSummary, error) {
	type entry struct {
		name string
		code string
	}
	entries := []entry{{"fig2", bench.Fig2Program(-1)}}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		entries = append(entries, entry{b.Name, code})
	}
	sum := &MitigationSummary{}
	for _, e := range entries {
		prog, err := bench.Compile(e.code, 0)
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		res, err := mitigate.Synthesize(context.Background(), prog, mitigate.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		if res.BaselineLeaks+res.BaselineGadgets == 0 {
			continue
		}
		row := MitigationKernelRow{
			Kernel:          e.name,
			BaselineLeaks:   res.BaselineLeaks,
			BaselineGadgets: res.BaselineGadgets,
			ResidualLeaks:   res.ResidualLeaks,
			Fences:          len(res.Fences),
			Analyses:        res.Analyses,
			WCETBounded:     res.WCETBounded,
			OverheadPercent: res.OverheadPercent,
		}
		if res.WCETBounded {
			row.BaselineWCET = res.BaselineWCET
			row.MitigatedWCET = res.MitigatedWCET
		}
		if row.ResidualLeaks == 0 {
			sum.FullyRepaired++
		}
		sum.Kernels = append(sum.Kernels, row)
	}
	return sum, nil
}

// resolvedKernelDemo measures the pipeline on jcmarker, the corpus kernel
// with the most statically-decided branches (guard chains against constant
// marker codes), where resolving them shrinks the speculative flow system.
func resolvedKernelDemo(opts core.Options, rounds int) (*ResolvedKernelDemo, error) {
	const kernel = "jcmarker"
	b, ok := bench.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", kernel)
	}
	plain, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	transformed, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	lanesBefore := transformed.CondBranchCount() * 2
	res, err := passes.Run(transformed, passes.Default())
	if err != nil {
		return nil, err
	}
	demo := &ResolvedKernelDemo{
		Kernel:           kernel,
		ResolvedBranches: res.ResolvedBranches,
		LanesBefore:      lanesBefore,
		LanesAfter:       transformed.CondBranchCount() * 2,
	}
	if demo.Off, err = timeAnalyze(plain, opts, rounds); err != nil {
		return nil, err
	}
	if demo.On, err = timeAnalyze(transformed, opts, rounds); err != nil {
		return nil, err
	}
	if demo.On.NsPerOp > 0 {
		demo.Speedup = float64(demo.Off.NsPerOp) / float64(demo.On.NsPerOp)
	}
	return demo, nil
}

// timeArms times several option configurations over one program with their
// rounds interleaved (arm A round 1, arm B round 1, ..., arm A round 2, ...)
// and reports the per-arm median round. Interleaving means slow environment
// drift — turbo clocks, allocator growth, background load — lands on every
// arm equally instead of biasing whichever was measured last; the median
// drops the odd GC-hit round. Back-to-back sequential timings of
// near-identical arms were observed to differ by 6% from drift alone, which
// would swamp the scheduler deltas this section exists to resolve.
func timeArms(prog *ir.Program, optsList []core.Options, rounds int) ([]FixpointSample, error) {
	if rounds <= 0 {
		rounds = 5
	}
	ns := make([][]int64, len(optsList))
	allocs := make([]int64, len(optsList))
	bytes := make([]int64, len(optsList))
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		// Rotate the starting arm each round: with a fixed order, whichever
		// arm always runs first after the round's GC sees a systematically
		// smaller heap and measures a few percent fast.
		for k := 0; k < len(optsList); k++ {
			i := (r + k) % len(optsList)
			opts := optsList[i]
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			if _, err := core.Analyze(prog, opts); err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			ns[i] = append(ns[i], elapsed.Nanoseconds())
			allocs[i] += int64(ms1.Mallocs - ms0.Mallocs)
			bytes[i] += int64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
	}
	samples := make([]FixpointSample, len(optsList))
	for i := range samples {
		sort.Slice(ns[i], func(a, b int) bool { return ns[i][a] < ns[i][b] })
		samples[i] = FixpointSample{
			NsPerOp:     ns[i][len(ns[i])/2],
			AllocsPerOp: allocs[i] / int64(rounds),
			BytesPerOp:  bytes[i] / int64(rounds),
		}
	}
	return samples, nil
}

// timeAnalyze runs the fixpoint rounds times over one program and returns the
// per-op wall clock and allocation figures.
func timeAnalyze(prog *ir.Program, opts core.Options, rounds int) (FixpointSample, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := core.Analyze(prog, opts); err != nil {
			return FixpointSample{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return FixpointSample{
		NsPerOp:     elapsed.Nanoseconds() / int64(rounds),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(rounds),
		BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(rounds),
	}, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *FixpointReport) WriteJSON(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
