// Command perfbench is the repository's benchmark: it runs one named
// workload against the analyzer, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run) as one JSON object on its last line of output.
//
//	go run . -workload wcet-dense -seed 1 -seconds 12 -trace 0
//
// See README.md for the workloads, the metrics and what each is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"specabsint"
	"specabsint/wire"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the analyzer sees, emitted by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"corpus_s", "s"},
	{"verdict_geomean_ms", "ms"},
	{"repair_geomean_ms", "ms"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
	{"requests_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"unknown_access_ratio", "ratio"},
	{"wcet_mcycles", "Mcycles"},
	{"fences_total", "count"},
}

// perLayer are the metrics of single layers, emitted by every traced run.
var perLayer = []metricDef{
	{"source.parse_ms", "ms"},
	{"lower.lower_ms", "ms"},
	{"lower.ir_instrs", "count"},
	{"passes.run_ms", "ms"},
	{"passes.ir_instrs_removed", "count"},
	{"core.fixpoint_ms", "ms"},
	{"core.transfers", "count"},
	{"core.ns_per_transfer", "ns"},
	{"core.iterations", "count"},
	{"core.join_change_ratio", "ratio"},
	{"core.lane_skip_ratio", "ratio"},
	{"core.alloc_mb", "MB"},
	{"core.partition_engines", "count"},
	{"core.partition_ms", "ms"},
	{"core.corpus_share", "ratio"},
	{"sidechannel.classify_ms", "ms"},
	{"wcet.estimate_ms", "ms"},
	{"mitigate.synth_ms", "ms"},
	{"mitigate.analyses", "count"},
	{"mitigate.ms_per_analysis", "ms"},
	{"machine.simulate_ms", "ms"},
	{"machine.replays", "count"},
	{"runner.job_ms", "ms"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.report_hit_ratio", "ratio"},
	{"runner.program_hit_ratio", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// workload is one named input set. Corpus workloads analyze a fixed program
// set in passes; serve-mixed (corpus == nil) drives the HTTP service.
type workload struct {
	name   string
	corpus func(smoke bool) []program
	geom   geometry
	// repair Mitigates every program after analyzing it.
	repair bool
	// contain runs every op in a child process under a memory cap.
	contain bool
}

var workloads = []workload{
	{
		name: "wcet-dense",
		corpus: func(smoke bool) []program {
			if smoke {
				return smokeSlice(wcetPrograms(), "fig2", "vga", "gtk")
			}
			return wcetPrograms()
		},
		geom: paperGeometry,
	},
	{
		name: "wcet-setassoc",
		corpus: func(smoke bool) []program {
			if smoke {
				return smokeSlice(wcetPrograms(), "fig2", "vga", "jdmarker")
			}
			return wcetPrograms()
		},
		geom:    geometry{Cache: setAssocCache, Par: numCPU},
		contain: true,
	},
	{
		name: "leak-repair",
		corpus: func(smoke bool) []program {
			if smoke {
				return smokeSlice(cryptoPrograms(), "hash", "aes", "fig2")
			}
			return cryptoPrograms()
		},
		geom:   paperGeometry,
		repair: true,
	},
	{name: "serve-mixed"},
}

// flags is what an op on p does: every program is repaired on leak-repair,
// and Fig. 2, the leaking program of the WCET set, wherever it is analyzed
// at the paper geometry. (At 64 sets x 8 ways its leak is architectural:
// no fence removes it.)
func (w workload) flags(p program, check bool) opFlags {
	return opFlags{repair: w.repair || p.Fig2 && w.geom.paper(), check: check}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	// injectWrong expects 513 #Miss on Fig. 2 instead of the paper's 514,
	// and capMB is the contained ops' memory cap: the self-test changes
	// both to see a wrong verdict and a capped analysis counted.
	injectWrong bool
	capMB       int64
	outDir      string

	tr   *tracer // non-nil in a traced run
	reqs atomic.Int64
}

func (o *options) nextReq() int64 { return o.reqs.Add(1) }

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 15

// repeatMinNs is how much op time (CPU time) a contained timed op of an
// untraced run measures: its child repeats the analysis until the repetitions add up to
// it, so a small program contributes many samples per pass and a large one
// a single sample, and no sample carries process start-up.
const repeatMinNs = int64(150 * time.Millisecond)

// repairSamplesPerPass is how many Fig. 2 repairs are timed after each
// pass of a workload other than leak-repair, for repair_geomean_ms.
const repairSamplesPerPass = 5

// outcome accumulates one run's accounting and metrics.
type outcome struct {
	attempted, failed int
	// wrong lists outputs that contradict a known answer or each other;
	// any makes the run incorrect. failures lists ops that produced no
	// output (errors, capped children).
	wrong, failures []string
	metrics         map[string]float64
	notes           []string

	pool            specabsint.PoolSnapshot
	traceOverheadMs float64
	overheadBase    float64 // ms the overhead is relative to
}

func (out *outcome) metric(name string, v float64) { out.metrics[name] = v }

// record counts one op: a failure when it produced no output, wrong when
// its output contradicts what is known.
func (out *outcome) record(r opResult, problems []string) {
	out.attempted++
	switch {
	case !r.ok():
		out.failed++
		out.failures = append(out.failures, r.Program+": "+r.Err)
	case len(problems) > 0:
		out.failed++
		out.wrong = append(out.wrong, problems...)
	}
}

func (out *outcome) wrongf(format string, args ...any) {
	out.attempted++
	out.failed++
	out.wrong = append(out.wrong, fmt.Sprintf(format, args...))
}

// precisionSums accumulates the deterministic precision metrics over a
// program set's check pass.
type precisionSums struct {
	accesses, unknown int
	wcet              int64
	fences            int
}

func (p *precisionSums) add(r *opResult) {
	if !r.ok() {
		return
	}
	p.accesses += r.Sum.Accesses
	p.unknown += r.Sum.Unknown
	if r.Sum.WCET > 0 {
		p.wcet += r.Sum.WCET
	}
	if r.Repair != nil {
		p.fences += len(r.Repair.Fences)
	}
}

func (p *precisionSums) report(out *outcome) {
	ratio := 0.0
	if p.accesses > 0 {
		ratio = float64(p.unknown) / float64(p.accesses)
	}
	out.metric("unknown_access_ratio", ratio)
	out.metric("wcet_mcycles", float64(p.wcet)/1e6)
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{capMB: memCapMB}
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: wcet-dense, wcet-setassoc, leak-repair or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 12, "length of the timed region")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "run a small slice of the workload (self-test)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if o.trace {
		o.tr = &tracer{}
	}
	res, notes, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, o, res, notes)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxNotes bounds the failure lines a run prints.
const maxNotes = 20

// run executes one workload and returns its result and the lines to print
// before it.
func run(ctx context.Context, o *options) (*result, []string, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	out := &outcome{metrics: map[string]float64{}}
	var err error
	if w.corpus != nil {
		err = runCorpus(ctx, o, w, out)
	} else {
		err = runServe(ctx, o, out)
	}
	if err != nil {
		return nil, nil, err
	}
	if out.attempted == 0 {
		return nil, nil, fmt.Errorf("no operation attempted")
	}
	out.metric("ok_ratio", 1-float64(out.failed)/float64(out.attempted))

	defs := endToEnd
	values := out.metrics
	if o.trace {
		defs = perLayer
		values = layerMetrics(o.tr, out)
	}
	res := &result{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for i, s := range out.wrong {
		if i == maxNotes {
			out.notes = append(out.notes, fmt.Sprintf("... %d more wrong", len(out.wrong)-i))
			break
		}
		out.notes = append(out.notes, "WRONG: "+s)
	}
	for i, s := range out.failures {
		if i == maxNotes {
			out.notes = append(out.notes, fmt.Sprintf("... %d more failed", len(out.failures)-i))
			break
		}
		out.notes = append(out.notes, "failed: "+s)
	}
	if o.trace {
		out.notes = append(out.notes, layerTable(o.tr)...)
		out.notes = append(out.notes, fmt.Sprintf("tracing overhead: %+.3f ms on a %.3f ms base (traced minus untraced)",
			out.traceOverheadMs, out.overheadBase))
		path, err := o.tr.write(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		out.notes = append(out.notes, "spans written to "+path)
	}
	if err := writeResult(o, res); err != nil {
		return nil, nil, fmt.Errorf("write result: %w", err)
	}
	return res, out.notes, nil
}

// writeResult keeps the run's result next to its spans.
func writeResult(o *options, res *result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(o.outDir, name), append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the JSON
// line.
func printResult(stdout *os.File, o *options, res *result, notes []string) {
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%s seed %d: attempted %d, failed %d, correct %v\n",
		o.workload, o.seed, res.Attempted, res.Failed, res.Correct)
	line, _ := json.Marshal(res) // plain maps of numbers and strings
	fmt.Fprintln(stdout, string(line))
}

// runCorpus runs a corpus workload: set-up, the cross-layer sentinel, an
// untimed check pass that fixes every program's expected verdict, then
// timed passes over the program set until the time is up.
func runCorpus(ctx context.Context, o *options, w workload, out *outcome) error {
	// Set-up: build the seed-ordered program set and compile it. The
	// compiles are serial, so set-up is timed by CPU time.
	var progs []program
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := cpuNanos()
		progs = shuffled(w.corpus(o.smoke), o.seed)
		for _, p := range progs {
			if _, err := specabsint.CompileOpts(p.Src); err != nil {
				return fmt.Errorf("set-up: %s: %w", p.Name, err)
			}
		}
		setups = append(setups, float64(cpuNanos()-t0)/1e9)
	}
	out.metric("setup_s", median(setups))

	op := func(p program, f opFlags, traced bool) opResult {
		var tr *tracer
		if traced {
			tr = o.tr
		}
		req := o.nextReq()
		if !w.contain {
			return runOp(ctx, tr, req, p, w.geom, f)
		}
		spec := childSpec{Workload: w.name, Smoke: o.smoke, Program: p.Name,
			Check: f.check, Repair: f.repair, Layers: f.layers, Trace: traced, Req: req}
		if !o.trace && !f.check {
			spec.MinNs = repeatMinNs
		}
		sp := tr.begin(0, req, "bench", "contained")
		r := runContained(ctx, spec, o.capMB)
		tr.adopt(sp, r.Spans)
		tr.end(sp)
		r.Spans = nil
		return r
	}

	// The sentinel runs first, on the small heap set-up leaves.
	sentFences, err := runSentinel(ctx, o, nil, out)
	if err != nil {
		return err
	}

	// Check pass: known answers, simulator replay, and the verdict every
	// timed pass must reproduce.
	expect := map[string]opResult{}
	var precision precisionSums
	for _, p := range progs {
		r := op(p, w.flags(p, true), o.trace)
		out.record(r, p.problems(w.geom, &r, o))
		expect[p.Name] = r
		precision.add(&r)
	}

	// Timed passes. A traced run alternates untraced and traced passes, all
	// through the layer pipeline, so the two differ only by the tracing.
	// Every op starts from a collected heap with the peak-RSS mark reset,
	// as if it ran in a fresh process; both happen outside the op's time. A
	// pass's time is the sum of its ops' times (a repeated contained op's
	// median repetition): CPU time, but wall time for the partition engine,
	// which fans out to cut wall time (see cpuNanos).
	verdict := map[string][]float64{}
	repair := map[string][]float64{}
	lat := map[string][]float64{}
	var peaks, sentRepair, tracedPasses, untracedPasses []float64 // passes in seconds
	ops := 0
	timedFor := 0.0 // seconds of op time over the untraced ops' samples
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < o.seconds; pass++ {
		traced := o.trace && pass%2 == 1
		o.tr.setTimed(traced)
		var d int64
		peak := 0.0
		for _, p := range progs {
			runtime.GC()
			resetPeakRSS()
			f := w.flags(p, false)
			f.layers = o.trace
			r := op(p, f, traced)
			out.record(r, timedProblems(p, w.geom, &r, expect[p.Name], o))
			if want := expect[p.Name]; !want.ok() && r.ok() {
				// The check pass was capped; later passes must reproduce
				// the first verdict a timed op produced.
				expect[p.Name] = r
			}
			if w.geom.Par > 0 {
				d += r.WallNs
			} else {
				d += r.OpNs
			}
			if !w.contain {
				r.MaxRSSKB = peakRSSKB()
			}
			if traced || !r.ok() {
				continue
			}
			opMs, verdictMs := r.samples()
			for i := range opMs {
				ops++
				timedFor += opMs[i] / 1000
			}
			lat[p.Name] = append(lat[p.Name], opMs...)
			verdict[p.Name] = append(verdict[p.Name], verdictMs...)
			if r.Repair != nil {
				repair[p.Name] = append(repair[p.Name], ms(r.RepairNs))
			}
			peak = max(peak, float64(r.MaxRSSKB)/1024)
		}
		if traced {
			tracedPasses = append(tracedPasses, float64(d)/1e9)
			continue
		}
		untracedPasses = append(untracedPasses, float64(d)/1e9)
		peaks = append(peaks, peak)
		if !w.repair {
			// Only leak-repair repairs its whole set; elsewhere the
			// repair metric is Fig. 2's, timed between passes (and in
			// each pass too where Fig. 2 is in the set and repaired).
			sentRepair = append(sentRepair, repairSamples(ctx, o, out, repairSamplesPerPass)...)
		}
	}
	o.tr.setTimed(false)

	out.metric("corpus_s", median(untracedPasses))
	out.metric("verdict_geomean_ms", geomean(medians(verdict)))
	if w.repair {
		out.metric("repair_geomean_ms", geomean(medians(repair)))
		out.metric("fences_total", float64(precision.fences))
	} else {
		out.metric("repair_geomean_ms", median(append(sentRepair, repair["fig2"]...)))
		out.metric("fences_total", float64(sentFences))
	}
	// A request is one program's analysis; the percentiles are over the
	// programs' median latencies, so the number of passes a run completes
	// does not move them.
	out.metric("request_p50_ms", quantile(medians(lat), 0.50))
	out.metric("request_p99_ms", quantile(medians(lat), 0.99))
	rate := 0.0 // no op finished
	if timedFor > 0 {
		rate = float64(ops) / timedFor
	}
	out.metric("requests_per_s", rate)
	out.metric("peak_rss_mb", median(peaks))
	precision.report(out)
	if o.trace {
		out.traceOverheadMs = 1000 * (median(tracedPasses) - median(untracedPasses))
		out.overheadBase = 1000 * median(untracedPasses)
	}
	return nil
}

// timedProblems compares a timed op with its program's expected result:
// the verdict and repair must be identical, and a verdict the check pass
// found wrong stays wrong. Without an expected result (a contained check op
// can be capped while a timed one completes) the op is checked against what
// is known about p.
func timedProblems(p program, g geometry, r *opResult, want opResult, o *options) []string {
	if !r.ok() {
		return nil
	}
	if !want.ok() {
		return p.problems(g, r, o)
	}
	if r.Sum.Digest != want.Sum.Digest {
		return []string{p.Name + ": report differs from the check pass"}
	}
	if (r.Repair == nil) != (want.Repair == nil) ||
		r.Repair != nil && (strings.Join(r.Repair.Fences, ",") != strings.Join(want.Repair.Fences, ",") ||
			r.Repair.Residual != want.Repair.Residual) {
		return []string{p.Name + ": repair differs from the check pass"}
	}
	return p.problems(g, &want, o)
}

func medians(m map[string][]float64) []float64 {
	var out []float64
	for _, xs := range m {
		out = append(out, median(xs))
	}
	return out
}

// repairSamples times n Mitigate runs of Fig. 2 at the paper geometry,
// each from a collected heap, for workloads whose own program set has
// nothing to repair.
func repairSamples(ctx context.Context, o *options, out *outcome, n int) []float64 {
	p := fig2()
	var samples []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		r := runOp(ctx, nil, o.nextReq(), p, paperGeometry, opFlags{repair: true})
		out.record(r, p.problems(paperGeometry, &r, o))
		if r.ok() {
			samples = append(samples, ms(r.RepairNs))
		}
	}
	return samples
}

// runSentinel checks every layer no matter the workload and returns the
// number of fences Fig. 2's repair needs: Fig. 2 repaired with Mitigate and
// replayed (paper answers: 514 #Miss, 3 #SpMiss, one leak at ph[k], two
// fences, no residual leak), jdmarker analyzed partitioned and dense at the
// set-associative geometry (identical verdicts), Fig. 2 round-tripped
// through the wire encoding and served twice over HTTP (identical reports,
// the second from the report cache). srv is the workload's server, or nil
// to start one.
func runSentinel(ctx context.Context, o *options, srv *server, out *outcome) (int, error) {
	p := fig2()
	fences := 0
	r := runOp(ctx, o.tr, o.nextReq(), p, paperGeometry, opFlags{repair: true, check: true})
	out.record(r, p.problems(paperGeometry, &r, o))
	if r.ok() && r.Repair != nil {
		fences = len(r.Repair.Fences)
	}

	// Fig. 2's secret-indexed access spans every set, so its partition is
	// trivial; jdmarker splits into independent set groups.
	jd := smokeSlice(wcetPrograms(), "jdmarker")[0]
	dense := runOp(ctx, o.tr, o.nextReq(), jd, geometry{Cache: setAssocCache}, opFlags{})
	part := runOp(ctx, o.tr, o.nextReq(), jd, geometry{Cache: setAssocCache, Par: numCPU}, opFlags{})
	var problems []string
	if dense.ok() && part.ok() && dense.Sum.Digest != part.Sum.Digest {
		problems = []string{"jdmarker: partitioned verdict differs from the dense engine's"}
	}
	if !dense.ok() {
		part = dense
	}
	out.record(part, problems)

	// The wire round trip of a report from the root API.
	cp, err := specabsint.CompileOpts(p.Src)
	if err != nil {
		return 0, fmt.Errorf("sentinel: %w", err)
	}
	rep, err := specabsint.AnalyzeContext(ctx, cp)
	if err != nil {
		return 0, fmt.Errorf("sentinel: %w", err)
	}
	direct := reportSummary(rep)
	req := o.nextReq()
	sp := o.tr.begin(0, req, "wire", "wire.encode")
	data, err := wire.EncodeReport(rep)
	o.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("sentinel: %w", err)
	}
	sp = o.tr.begin(0, req, "wire", "wire.decode")
	doc, err := wire.DecodeReport(data)
	o.tr.end(sp)
	var back *specabsint.Report
	if err == nil {
		back, err = doc.ToReport()
	}
	rt := opResult{Program: "fig2 wire round trip"}
	if err != nil {
		rt.Err = err.Error()
	}
	problems = nil
	if err == nil && reportSummary(back).Digest != direct.Digest {
		problems = []string{"fig2: wire round trip changed the report"}
	}
	out.record(rt, problems)

	if srv == nil {
		if srv, err = startServer(numCPU, o.tr); err != nil {
			return 0, err
		}
		defer func() { out.pool = srv.svc.Snapshot() }()
		defer srv.stop(context.Background())
	}
	cl := newClient(srv.url)
	defer cl.hc.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		r := opResult{Program: fmt.Sprintf("fig2 served #%d", i+1)}
		rp, err := cl.analyze(ctx, o.tr, o.nextReq(), p.Name, p.Src, 0)
		problems = nil
		if err != nil {
			r.Err = err.Error()
		} else if got, err := servedSummary(rp); err != nil || got.Digest != direct.Digest {
			problems = []string{r.Program + ": served report differs from the direct analysis"}
		} else if i == 1 && !rp.resp.CacheHit {
			problems = []string{r.Program + ": a repeated request missed the report cache"}
		}
		out.record(r, problems)
	}
	return fences, nil
}
