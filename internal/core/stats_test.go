package core

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
	"specabsint/internal/obs"
)

// compileBench compiles one corpus kernel (raw code; the caller picks
// WCET-kind kernels that already have a main).
func compileBench(t *testing.T, name string) *ir.Program {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not in corpus", name)
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return prog
}

// TestStatsFullyAssociativeAcrossParallelism pins the strongest form of the
// determinism contract: on the paper's fully-associative cache the partition
// never splits, every SetParallelism value falls back to the single dense
// fixpoint, and the whole stats block — semantic counters AND partition
// shape — is byte-identical at 0, 1, 4, and NumCPU workers.
func TestStatsFullyAssociativeAcrossParallelism(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	var first *Result
	for _, w := range []int{0, 1, 4, runtime.NumCPU()} {
		opts := DefaultOptions()
		opts.SetParallelism = w
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		want := obs.PartitionStats{Engines: 1, Groups: 0, DepthGroup: -1}
		if res.Partition != want {
			t.Fatalf("workers=%d: partition %+v, want dense fallback %+v", w, res.Partition, want)
		}
		if first == nil {
			first = res
		} else if res.Stats != first.Stats {
			t.Fatalf("workers=%d: stats differ from workers=0:\n got %+v\nwant %+v", w, res.Stats, first.Stats)
		}
	}
	// The counters must also be live, not zero-value placeholders.
	st := first.Stats
	if st.Iterations == 0 || st.Transfers == 0 || st.Joins == 0 || st.Colors == 0 || st.LanesSpawned == 0 {
		t.Fatalf("implausibly idle fixpoint counters: %+v", st)
	}
	if st.Iterations != int64(first.Iterations) {
		t.Fatalf("Stats.Iterations=%d disagrees with Result.Iterations=%d", st.Iterations, first.Iterations)
	}
}

// TestStatsRepeatedRunsDeterministic re-runs the same set-associative,
// parallel analysis and requires identical counters every time: goroutine
// scheduling may reorder the per-group engines but must not change what any
// of them computes.
func TestStatsRepeatedRunsDeterministic(t *testing.T) {
	prog := compileBench(t, "jcmarker")
	opts := DefaultOptions()
	opts.Cache = setAssocConfig
	opts.SetParallelism = 4
	var first *Result
	runs := 3
	if raceDetectorOn || testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
			if res.Partition.Engines < 1 {
				t.Fatalf("partition reports %d engines", res.Partition.Engines)
			}
			continue
		}
		if res.Stats != first.Stats || res.Partition != first.Partition {
			t.Fatalf("run %d: stats drifted:\n got %+v %+v\nwant %+v %+v",
				i, res.Stats, res.Partition, first.Stats, first.Partition)
		}
	}
}

// TestStatsCollectorFlush checks the collector plumbing end to end at the
// core layer: a run with a collector snapshots exactly the counters the
// Result carries, and a nil collector changes nothing about the analysis.
func TestStatsCollectorFlush(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	opts := DefaultOptions()
	col := obs.NewCollector()
	opts.Collector = col
	withCol, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if snap.Fixpoint != withCol.Stats {
		t.Fatalf("collector fixpoint %+v, result carries %+v", snap.Fixpoint, withCol.Stats)
	}
	if snap.Partition != withCol.Partition {
		t.Fatalf("collector partition %+v, result carries %+v", snap.Partition, withCol.Partition)
	}
	opts.Collector = nil
	without, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if without.Stats != withCol.Stats {
		t.Fatalf("collector presence changed semantic counters:\n nil %+v\n col %+v", without.Stats, withCol.Stats)
	}
	requireSameResult(t, "nil vs collector", withCol, without)
}

// TestCollectorOverhead is the observability layer's performance contract:
// attaching a collector may not slow the fixpoint on the medium reference
// kernel by more than 2%. One wall-clock sample of a ~70 ms analysis
// varies by far more than 2% on a shared machine, so the measurement is
// built to resolve the bound:
//   - each run is billed the CPU time of the process, which load from other
//     processes (the rest of `go test ./...`) cannot inflate the way it
//     inflates wall time;
//   - the garbage collector is off during a run and the heap is collected
//     between runs, so a collection cycle does not land on one side of a
//     pair at random (allocation itself is still billed);
//   - the two configurations run as 40 interleaved pairs in alternating
//     order, so slow drift (frequency, thermal, background load) hits both
//     halves of a pair alike;
//   - the verdict is the median of the per-pair ratios, so disturbed pairs
//     cannot move it.
//
// On a 2-vCPU VM, with two busy loops competing for both CPUs, the median
// read 1.004-1.006 with no overhead and 1.025-1.036 with an injected 3%.
// A median still above the bound is re-measured from scratch before the
// test fails: a genuine regression fails every attempt, transient
// contention does not.
func TestCollectorOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round timing benchmark; skipped in -short")
	}
	if raceDetectorOn {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	prog := compileBench(t, "g72")
	opts := DefaultOptions()
	if _, err := Analyze(prog, opts); err != nil { // warm-up
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(col *obs.Collector) time.Duration {
		opts.Collector = col
		runtime.GC() // don't bill one sample for the previous sample's garbage
		start := processCPUTime()
		if _, err := Analyze(prog, opts); err != nil {
			t.Fatal(err)
		}
		return processCPUTime() - start
	}
	// measure returns the median over pairs of collector/nil CPU time.
	measure := func() (ratio float64, medNil time.Duration) {
		const pairs = 40
		ratios := make([]float64, pairs)
		nils := make([]time.Duration, pairs)
		for i := range ratios {
			var dNil, dCol time.Duration
			if i%2 == 0 {
				dNil = run(nil)
				dCol = run(obs.NewCollector())
			} else {
				dCol = run(obs.NewCollector())
				dNil = run(nil)
			}
			if dNil <= 0 {
				t.Skipf("CPU clock too coarse: nil run measured %v", dNil)
			}
			ratios[i] = float64(dCol) / float64(dNil)
			nils[i] = dNil
		}
		sort.Float64s(ratios)
		sort.Slice(nils, func(a, b int) bool { return nils[a] < nils[b] })
		return ratios[pairs/2], nils[pairs/2]
	}
	const attempts = 3
	var ratio float64
	var medNil time.Duration
	for a := 1; a <= attempts; a++ {
		ratio, medNil = measure()
		t.Logf("attempt %d: median collector/nil CPU-time ratio %.4f (median nil run %v)", a, ratio, medNil)
		if ratio <= 1.02 {
			return
		}
	}
	t.Fatalf("collector overhead %.2f%% exceeds 2%% on all %d attempts (median nil run %v)",
		(ratio-1)*100, attempts, medNil)
}
