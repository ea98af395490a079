package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specabsint"
	"specabsint/internal/serve"
	"specabsint/wire"
)

// server is an in-process specserve: a Service behind the internal/serve
// HTTP API on a loopback listener.
type server struct {
	svc  *specabsint.Service
	api  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// Headers that tie a server-side span to the client request that caused it.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// cacheBound sizes both cache tiers. The repeat corpus fits many times
// over, while the stream of edits and fresh programs fills the tiers within
// the first thousand requests, so memory plateaus at a level that does not
// depend on how many requests a run completes.
const cacheBound = 256

// startServer serves a fresh Service with the given workers. When tr is
// set, a span covers each request from the handler's entry to its response
// header: decoding, admission, the job and encoding.
func startServer(workers int, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{svc: specabsint.NewService(specabsint.ServiceConfig{
		Workers:           workers,
		ProgramCacheBound: cacheBound,
		ReportCacheBound:  cacheBound,
	})}
	s.api = serve.New(serve.Config{Service: s.svc})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if tr == nil || err != nil {
			s.api.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sw := &spanWriter{ResponseWriter: w, tr: tr, sp: tr.begin(parent, req, "serve", "serve.handler")}
		s.api.ServeHTTP(sw, r)
		sw.close()
	})
	s.hs = &http.Server{Handler: h}
	s.url = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, drains admitted jobs and waits for the
// serving goroutine.
func (s *server) stop(ctx context.Context) error {
	s.api.BeginDrain()
	err := s.hs.Shutdown(ctx)
	if derr := s.api.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// spanWriter ends the handler span when the response header is written,
// so the span is closed before the client can see the reply.
type spanWriter struct {
	http.ResponseWriter
	tr   *tracer
	sp   *span
	once sync.Once
}

func (w *spanWriter) close() { w.once.Do(func() { w.tr.end(w.sp) }) }

func (w *spanWriter) WriteHeader(code int) {
	w.close()
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(b []byte) (int, error) {
	w.close()
	return w.ResponseWriter.Write(b)
}

// client is one closed-loop caller: it sends a request and waits for the
// reply before sending the next.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		url: url,
	}
}

// reply is one served analysis as the client saw it.
type reply struct {
	resp    wire.AnalyzeResponse
	raw     []byte // the response body
	latency time.Duration
}

// reportDigest hashes the canonical report section of a response body;
// identical reports give identical bytes under the wire contract.
func (r *reply) reportDigest() [32]byte {
	i := bytes.LastIndex(r.raw, []byte(`"report":`))
	return sha256.Sum256(r.raw[max(i, 0):])
}

// analyze POSTs one source to /v1/analyze, under the default options or,
// with depthMiss > 0, a different speculation window. The latency covers
// encoding the request, the round trip and decoding the reply.
func (c *client) analyze(ctx context.Context, tr *tracer, req int64, name, src string, depthMiss int) (*reply, error) {
	root := tr.begin(0, req, "bench", "serve.request")
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin(root.id(), req, "wire", "wire.encode")
	areq := wire.AnalyzeRequest{V: wire.Version, Name: name, Source: src}
	if depthMiss > 0 {
		areq.Options = &wire.Options{DepthMiss: &depthMiss}
	}
	body, err := wire.Marshal(areq)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatInt(root.id(), 10))
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", name, hresp.StatusCode, bytes.TrimSpace(data))
	}
	r := &reply{raw: data}
	sp = tr.begin(root.id(), req, "wire", "wire.decode")
	err = wire.Unmarshal(data, &r.resp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.latency = time.Since(t0)
	if tr != nil {
		if h := tr.find(req, "serve.handler"); h != nil {
			tr.derive(h, "runner", "runner.job", h.End, r.resp.ElapsedNanos, "hit", r.resp.CacheHit)
		}
		tr.end(root, "job_ns", r.resp.ElapsedNanos)
	}
	return r, nil
}

// servedSummary decodes a reply's report back into the public form.
func servedSummary(r *reply) (summary, error) {
	if r.resp.Report == nil {
		return summary{}, errors.New("reply without report")
	}
	rep, err := r.resp.Report.ToReport()
	if err != nil {
		return summary{}, err
	}
	return reportSummary(rep), nil
}

// served records what the closed loop saw for one request.
type served struct {
	class   int
	latency time.Duration
	hit     bool
	traced  bool
}

// runServe is the serve-mixed workload: nproc closed-loop clients against
// an in-process server with nproc workers, on a seeded mix of repeats,
// one-constant edits, fresh programs and option variants.
func runServe(ctx context.Context, o *options, out *outcome) error {
	corpus := serveCorpus()
	if o.smoke {
		corpus = smokeSlice(corpus, "fig2", "vga", "hash@4k")
	}
	reqs := newStream(o.seed, corpus, editablePrograms(corpus))

	// Set-up: start a server and push the corpus through it once, cold —
	// the cache fill a deployment pays at start. The cold pass is corpus_s.
	// nproc clients and nproc workers share the work, so both are timed by
	// the wall clock: CPU time would hide what the service's parallelism
	// buys.
	var setups, passes []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(ctx); err != nil {
				return fmt.Errorf("set-up: stop: %w", err)
			}
		}
		runtime.GC()
		t0 := wallNanos()
		var err error
		srv, err = startServer(numCPU, o.tr)
		if err != nil {
			return err
		}
		p0 := wallNanos()
		if err := fillCorpus(ctx, srv, corpus); err != nil {
			srv.stop(ctx)
			return fmt.Errorf("set-up: %w", err)
		}
		t1 := wallNanos()
		passes = append(passes, float64(t1-p0)/1e9)
		setups = append(setups, float64(t1-t0)/1e9)
	}
	defer srv.stop(context.Background())
	out.metric("setup_s", median(setups))
	out.metric("corpus_s", median(passes))

	fences, err := runSentinel(ctx, o, srv, out)
	if err != nil {
		return err
	}
	repairs := repairSamples(ctx, o, out, 15)

	// Check pass: the expected verdict of every repeat-class program,
	// straight from the layers.
	expect := make([]opResult, len(corpus))
	var precision precisionSums
	for i, p := range corpus {
		r := runOp(ctx, o.tr, o.nextReq(), p, paperGeometry, opFlags{check: true})
		out.record(r, p.problems(paperGeometry, &r, o))
		expect[i] = r
		precision.add(&r)
	}

	// Timed closed loop. A traced run spends the first half untraced and
	// the second half traced, so the difference is the tracing overhead.
	before := srv.svc.Snapshot()
	var (
		next    atomic.Int64
		mu      sync.Mutex
		log     []served
		errs    []string
		seen    = map[[32]byte][32]byte{} // source and options -> report digest
		samples [numClasses][]*reply
		sampleQ [numClasses][]request
		wrong   []string
	)
	runtime.GC()
	resetPeakRSS()
	start := time.Now()
	deadline := start.Add(o.seconds)
	half := start.Add(o.seconds / 2)
	var wg sync.WaitGroup
	for c := 0; c < numCPU; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(srv.url)
			defer cl.hc.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				rq := reqs.request(i)
				traced := o.trace && time.Now().After(half)
				var tr *tracer
				if traced {
					tr = o.tr
				}
				rp, err := cl.analyze(ctx, tr, o.nextReq(), rq.Name, rq.Source, rq.DepthMiss)
				mu.Lock()
				if err != nil {
					errs = append(errs, err.Error())
					mu.Unlock()
					continue
				}
				log = append(log, served{class: rq.Class, latency: rp.latency, hit: rp.resp.CacheHit, traced: traced})
				mu.Unlock()
				src := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s", rq.DepthMiss, rq.Source)))
				dig := rp.reportDigest()
				mu.Lock()
				if prev, ok := seen[src]; !ok {
					seen[src] = dig
					if rq.Class == classRepeat || len(samples[rq.Class]) < verifySamples {
						samples[rq.Class] = append(samples[rq.Class], rp)
						sampleQ[rq.Class] = append(sampleQ[rq.Class], rq)
					}
				} else if prev != dig {
					wrong = append(wrong, rq.Name+": two different reports for one request")
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := srv.svc.Snapshot()
	repairs = append(repairs, repairSamples(ctx, o, out, 15)...)

	// Every request is an attempt; errors and non-200 replies fail.
	out.attempted += len(log) + len(errs)
	out.failed += len(errs)
	out.failures = append(out.failures, errs...)
	out.failed += len(wrong)
	out.wrong = append(out.wrong, wrong...)

	// Verify the first reply for every repeat program against the check
	// pass, and a sample of the other classes against a direct run.
	for c := 0; c < numClasses; c++ {
		for k, rp := range samples[c] {
			rq := sampleQ[c][k]
			got, err := servedSummary(rp)
			if err != nil {
				out.wrongf("%s: %v", rq.Name, err)
				continue
			}
			var want summary
			if c == classRepeat {
				want = expect[rq.Repeat].Sum
			} else if want, err = directSummary(ctx, rq); err != nil {
				out.wrongf("%s: direct analysis: %v", rq.Name, err)
				continue
			}
			if got.Digest != want.Digest {
				out.wrongf("%s: served report differs from the direct analysis", rq.Name)
			}
		}
	}

	// Latency and throughput over the untraced requests.
	var lat []float64
	var classLat [numClasses][]float64
	var count, hits [numClasses]int
	untraced := 0
	for _, s := range log {
		count[s.class]++
		if s.hit {
			hits[s.class]++
		}
		if s.traced {
			continue
		}
		untraced++
		ms := float64(s.latency) / 1e6
		lat = append(lat, ms)
		classLat[s.class] = append(classLat[s.class], ms)
	}
	window := elapsed
	if o.trace {
		window = half.Sub(start)
	}
	out.metric("request_p50_ms", quantile(lat, 0.50))
	out.metric("request_p99_ms", quantile(lat, 0.99))
	out.metric("requests_per_s", float64(untraced)/window.Seconds())
	var classMed []float64
	for c := 0; c < numClasses; c++ {
		if len(classLat[c]) > 0 {
			classMed = append(classMed, median(classLat[c]))
		}
	}
	out.metric("verdict_geomean_ms", geomean(classMed))
	out.metric("repair_geomean_ms", median(repairs))
	out.metric("fences_total", float64(fences))
	precision.report(out)
	out.metric("peak_rss_mb", float64(peakRSSKB())/1024)

	total := len(log)
	line := fmt.Sprintf("serve-mixed: %d requests in %.2fs by %d closed-loop clients;", total, elapsed.Seconds(), numCPU)
	allHits := 0
	for c := 0; c < numClasses; c++ {
		allHits += hits[c]
		line += fmt.Sprintf(" %s %.1f%% (hit %.1f%%)", classNames[c], pct(count[c], total), pct(hits[c], count[c]))
	}
	out.pool = poolDelta(before, after)
	out.notes = append(out.notes, line+fmt.Sprintf("; report-cache hits %.1f%% of all requests, program-cache hits %.1f%% of report-cache misses",
		pct(allHits, total), pct(int(out.pool.CacheHits), int(out.pool.CacheHits+out.pool.CacheMisses))))

	if o.trace {
		var t, u []float64
		for _, s := range log {
			if s.traced {
				t = append(t, float64(s.latency)/1e6)
			} else {
				u = append(u, float64(s.latency)/1e6)
			}
		}
		out.traceOverheadMs = mean(t) - mean(u)
		out.overheadBase = mean(u)
	}
	return nil
}

// verifySamples bounds how many edit, fresh and variant replies are
// re-analyzed directly after the run.
const verifySamples = 8

// directSummary analyzes a served request through the root API under the
// options the request carried.
func directSummary(ctx context.Context, rq request) (summary, error) {
	cp, err := specabsint.CompileOpts(rq.Source)
	if err != nil {
		return summary{}, err
	}
	var opts []specabsint.Option
	if rq.DepthMiss > 0 {
		opts = append(opts, specabsint.WithDepths(rq.DepthMiss, specabsint.DefaultConfig().DepthHit))
	}
	rep, err := specabsint.AnalyzeContext(ctx, cp, opts...)
	if err != nil {
		return summary{}, err
	}
	return reportSummary(rep), nil
}

// fillCorpus sends every corpus program once, from nproc clients.
func fillCorpus(ctx context.Context, srv *server, corpus []program) error {
	var next atomic.Int64
	errs := make(chan error, numCPU)
	var wg sync.WaitGroup
	for c := 0; c < numCPU; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(srv.url)
			defer cl.hc.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(corpus) {
					return
				}
				if _, err := cl.analyze(ctx, nil, 0, corpus[i].Name, corpus[i].Src, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// poolDelta is the pool's counter change over a window.
func poolDelta(a, b specabsint.PoolSnapshot) specabsint.PoolSnapshot {
	return specabsint.PoolSnapshot{
		CacheHits:         b.CacheHits - a.CacheHits,
		CacheMisses:       b.CacheMisses - a.CacheMisses,
		ReportCacheHits:   b.ReportCacheHits - a.ReportCacheHits,
		ReportCacheMisses: b.ReportCacheMisses - a.ReportCacheMisses,
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
