package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a contained op's parameters to the child process. Its
// presence is what makes the benchmark binary (or its test binary) act as
// a child.
const childEnv = "PERFBENCH_CHILD"

// childSpec is one contained op.
type childSpec struct {
	Workload string `json:"workload"`
	Smoke    bool   `json:"smoke"`
	Program  string `json:"program"`
	Check    bool   `json:"check"`
	Repair   bool   `json:"repair"`
	Layers   bool   `json:"layers"`
	Trace    bool   `json:"trace"`
	Req      int64  `json:"req"`
	// MinNs makes the child repeat the op until the repetitions' summed
	// op time reaches it (at most maxReps times); 0 runs it once.
	MinNs int64 `json:"min_ns,omitempty"`
}

// maxReps bounds a repeated contained op's repetitions.
const maxReps = 64

// Caps a contained op runs under. memCapMB sits above every kernel's
// measured peak except the partitioned susan blow-up (stc, the next
// largest, peaks near 1100 MB), so that blow-up ends in about two seconds
// as a counted failure instead of exhausting the host.
const (
	memCapMB   = 1536
	timeCap    = 60 * time.Second
	pollPeriod = 5 * time.Millisecond
)

// runContained runs spec in a child process under the memory and time
// caps, killing it when either is exceeded.
func runContained(ctx context.Context, spec childSpec, capMB int64) opResult {
	out := opResult{Program: spec.Program}
	self, err := os.Executable()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	enc, err := json.Marshal(spec)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		out.Err = err.Error()
		return out
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(pollPeriod)
	defer tick.Stop()
	var waitErr error
	capped := ""
wait:
	for {
		select {
		case waitErr = <-done:
			break wait
		case <-tick.C:
			if rss := procRSSKB(cmd.Process.Pid); rss > capMB*1024 {
				capped = fmt.Sprintf("killed at %d MB resident (cap %d MB)", rss/1024, capMB)
			} else if time.Since(start) > timeCap {
				capped = fmt.Sprintf("killed after %v (cap %v)", time.Since(start).Round(time.Millisecond), timeCap)
			}
		case <-ctx.Done():
			capped = "canceled"
		}
		if capped != "" {
			_ = cmd.Process.Kill() // the wait below reports the outcome
			waitErr = <-done
			break
		}
	}
	elapsed := time.Since(start).Nanoseconds()
	rss, cpu := int64(0), int64(0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss, cpu = ru.Maxrss, ru.Utime.Nano()+ru.Stime.Nano()
	}
	switch {
	case capped != "":
		out.Capped, out.Err = true, capped
	case waitErr != nil:
		out.Err = fmt.Sprintf("child: %v: %s", waitErr, lastLine(stderr.String()))
	default:
		if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
			out.Err = fmt.Sprintf("child output: %v", err)
		}
	}
	// A finished op keeps the times the child measured, which leave out
	// process start-up. An op that did not finish is charged the child's
	// whole CPU and elapsed time.
	if !out.ok() {
		out.OpNs, out.WallNs = cpu, elapsed
	}
	out.MaxRSSKB = rss
	return out
}

// childMain runs one contained op and prints its result as JSON.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "child spec:", err)
		return 2
	}
	w, ok := workloadByName(spec.Workload)
	if !ok || w.corpus == nil {
		fmt.Fprintln(os.Stderr, "child: no corpus workload", spec.Workload)
		return 2
	}
	var p *program
	for _, q := range w.corpus(spec.Smoke) {
		if q.Name == spec.Program {
			q := q
			p = &q
		}
	}
	if p == nil {
		fmt.Fprintln(os.Stderr, "child: no program", spec.Program)
		return 2
	}
	var tr *tracer
	if spec.Trace {
		tr = &tracer{}
	}
	f := opFlags{repair: spec.Repair, check: spec.Check, layers: spec.Layers}
	r := runOp(context.Background(), tr, spec.Req, *p, w.geom, f)
	if spec.MinNs > 0 && r.ok() {
		repeat(&r, spec.MinNs, func() opResult {
			runtime.GC()
			return runOp(context.Background(), tr, spec.Req, *p, w.geom, f)
		})
	}
	if tr != nil {
		r.Spans = tr.spans
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	return 0
}

// repeat runs op again until the summed op time of r and its repetitions
// reaches minNs, or maxReps ops have run, and records every repetition's
// times in r, with their medians as r's. A repetition whose report differs
// from the first op's makes r's digest differ from every real one, so the
// timed op is counted wrong; one that fails makes r fail.
func repeat(r *opResult, minNs int64, op func() opResult) {
	r.OpReps, r.VerdictReps, r.WallReps = []int64{r.OpNs}, []int64{r.VerdictNs}, []int64{r.WallNs}
	total := r.OpNs
	for total < minNs && len(r.OpReps) < maxReps {
		q := op()
		if !q.ok() {
			r.Err = "repetition: " + q.Err
			return
		}
		if q.Sum.Digest != r.Sum.Digest {
			r.Sum.Digest = "repetitions disagree"
		}
		r.OpReps = append(r.OpReps, q.OpNs)
		r.VerdictReps = append(r.VerdictReps, q.VerdictNs)
		r.WallReps = append(r.WallReps, q.WallNs)
		total += q.OpNs
	}
	r.OpNs, r.VerdictNs, r.WallNs = medianNs(r.OpReps), medianNs(r.VerdictReps), medianNs(r.WallReps)
}

func medianNs(xs []int64) int64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int64(median(fs))
}

// procRSSKB reads a live process's resident set; 0 once it is gone.
func procRSSKB(pid int) int64 { return procStatusKB(strconv.Itoa(pid), "VmRSS:") }

// procStatusKB reads one kB field of /proc/<pid>/status; 0 when absent.
func procStatusKB(pid, field string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// resetPeakRSS restarts this process's peak-resident-set mark (Linux
// clear_refs); peakRSSKB then reads the peak since the reset.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it peakRSSKB reads the process-lifetime peak
}

// peakRSSKB is this process's peak resident set since resetPeakRSS.
func peakRSSKB() int64 {
	if kb := procStatusKB("self", "VmHWM:"); kb > 0 {
		return kb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
