package main

import (
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the child process of contained
// ops, as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func smokeRun(t *testing.T, workload string, trace bool, edit func(*options)) *result {
	t.Helper()
	o := &options{workload: workload, seed: 1, seconds: 300 * time.Millisecond,
		smoke: true, capMB: memCapMB, outDir: t.TempDir()}
	if trace {
		o.trace, o.tr = true, &tracer{}
	}
	if edit != nil {
		edit(o)
	}
	res, notes, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, n := range notes {
		t.Log(n)
	}
	return res
}

// checkMetrics asserts that exactly the named metrics are emitted, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, workload string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.name, m.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, false, nil)
			checkMetrics(t, w.name, res, endToEnd)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, true, nil)
			checkMetrics(t, w.name, res, perLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			// The variant class is what reaches the program tier.
			if w.name == "serve-mixed" && res.Metrics["runner.program_hit_ratio"].Value <= 0 {
				t.Errorf("runner.program_hit_ratio = %v, want > 0", res.Metrics["runner.program_hit_ratio"].Value)
			}
		})
	}
}

// TestWrongVerdictCounted expects a wrong Fig. 2 #Miss: every op whose
// output that expectation judges must count as a failure, and the run as
// incorrect.
func TestWrongVerdictCounted(t *testing.T) {
	for _, w := range []string{"wcet-dense", "serve-mixed"} {
		res := smokeRun(t, w, false, func(o *options) { o.injectWrong = true })
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected verdict gave correct %v, failed %d", w, res.Correct, res.Failed)
		}
	}
}

// TestCapCountsFailure contains every analysis under a 1 MB cap: each
// child is killed, and each kill is a failure, not a wrong answer.
func TestCapCountsFailure(t *testing.T) {
	res := smokeRun(t, "wcet-setassoc", false, func(o *options) { o.capMB = 1 })
	if !res.Correct {
		t.Errorf("capped analyses made the run incorrect")
	}
	// Nine contained ops: three programs in the check pass and two timed
	// passes. A child can finish between two polls of its memory, so
	// require a third of them.
	if res.Failed < 3 {
		t.Errorf("failed %d of %d, want the contained ops", res.Failed, res.Attempted)
	}
}

// TestRepeat checks a contained op's repetitions: they stop once the op
// time adds up, their medians become the op's times, and a repetition
// with another report makes the op's digest match no real one.
func TestRepeat(t *testing.T) {
	times := []int64{40, 10, 30, 20}
	n := 0
	next := func() opResult {
		n++
		return opResult{OpNs: times[n], VerdictNs: times[n] / 2, Sum: summary{Digest: "d"}}
	}
	r := opResult{OpNs: times[0], VerdictNs: times[0] / 2, Sum: summary{Digest: "d"}}
	repeat(&r, 80, next)
	if len(r.OpReps) != 3 || r.OpNs != 30 || r.VerdictNs != 15 || r.Sum.Digest != "d" {
		t.Errorf("reps %v, op %d, verdict %d, digest %q; want 3 reps, 30, 15, d",
			r.OpReps, r.OpNs, r.VerdictNs, r.Sum.Digest)
	}
	n = 0
	r = opResult{OpNs: 1, Sum: summary{Digest: "other"}}
	repeat(&r, 1000, func() opResult { n++; return opResult{OpNs: 1, Sum: summary{Digest: "d"}} })
	if len(r.OpReps) != maxReps || n != maxReps-1 || r.Sum.Digest != "repetitions disagree" {
		t.Errorf("%d reps after %d repetitions, digest %q; want %d, %d and a disagreement",
			len(r.OpReps), n, r.Sum.Digest, maxReps, maxReps-1)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v, want 4", q)
	}
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", g)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if c := covered(ivs, 0, 45); c != 15+10+5 {
		t.Errorf("covered = %d, want 30", c)
	}
}

// TestStreamReproducible checks that a request is a function of the seed
// and its index alone, and that every block has the fixed class mix.
func TestStreamReproducible(t *testing.T) {
	corpus := serveCorpus()
	a := newStream(7, corpus, editablePrograms(corpus))
	b := newStream(7, corpus, editablePrograms(corpus))
	var count [numClasses]int
	for i := int64(blockLen*5 - 1); i >= 0; i-- {
		ra, rb := a.request(i), b.request(i)
		if ra != rb {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		count[ra.Class]++
	}
	want := [numClasses]int{5 * blockRepeat, 5 * blockEdit, 5 * blockFresh, 5 * blockVariant}
	if count != want {
		t.Errorf("class counts %v, want %v", count, want)
	}
}
