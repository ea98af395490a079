package main

import (
	"fmt"
	"sort"
)

// callStats aggregates the spans of one layer call.
type callStats struct {
	n     int
	self  int64 // ns
	dur   int64 // ns
	attrs map[string]float64
}

func (c *callStats) meanSelfMs() float64 { return div(float64(c.self)/1e6, float64(c.n)) }
func (c *callStats) meanDurMs() float64  { return div(float64(c.dur)/1e6, float64(c.n)) }
func (c *callStats) meanAttr(k string) float64 {
	return div(c.attrs[k], float64(c.n))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byName groups spans by call name, with self times.
func byName(spans []*span, keep func(*span) bool) map[string]*callStats {
	self := selfTimes(spans)
	out := map[string]*callStats{}
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		c := out[s.Name]
		if c == nil {
			c = &callStats{attrs: map[string]float64{}}
			out[s.Name] = c
		}
		c.n++
		c.self += self[s.ID]
		c.dur += s.dur()
		for k, v := range s.Attrs {
			c.attrs[k] += v
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics from a traced run's spans:
// times are means per call over every call the run made (check pass,
// sentinel and traced timed passes), counts are means per call, ratios are
// over the summed counts.
func layerMetrics(tr *tracer, out *outcome) map[string]float64 {
	all := byName(tr.spans, func(*span) bool { return true })
	get := func(name string) *callStats {
		if c := all[name]; c != nil {
			return c
		}
		return &callStats{attrs: map[string]float64{}}
	}
	core := get("core.AnalyzeContext")
	part := byName(tr.spans, func(s *span) bool { return s.Name == "core.AnalyzeContext" && s.Attrs["groups"] > 0 })
	partCore := part["core.AnalyzeContext"]
	if partCore == nil {
		partCore = &callStats{attrs: map[string]float64{}}
	}
	mit := get("mitigate.Synthesize")
	req := get("serve.request")
	job := get("runner.job")
	m := map[string]float64{
		"source.parse_ms":          get("source.Parse").meanSelfMs(),
		"lower.lower_ms":           get("lower.Lower").meanSelfMs(),
		"lower.ir_instrs":          get("lower.Lower").meanAttr("ir_instrs"),
		"passes.run_ms":            get("passes.Run").meanSelfMs(),
		"passes.ir_instrs_removed": get("passes.Run").meanAttr("instrs_removed"),
		"core.fixpoint_ms":         core.meanSelfMs(),
		"core.transfers":           core.meanAttr("transfers"),
		"core.ns_per_transfer":     div(float64(core.self), core.attrs["transfers"]),
		"core.iterations":          core.meanAttr("iterations"),
		"core.join_change_ratio":   div(core.attrs["join_changes"], core.attrs["joins"]),
		"core.lane_skip_ratio": div(core.attrs["lanes_skipped"],
			core.attrs["lanes_spawned"]+core.attrs["lanes_skipped"]),
		"core.alloc_mb":            core.meanAttr("alloc_bytes") / (1 << 20),
		"core.partition_engines":   partCore.meanAttr("engines"),
		"core.partition_ms":        partCore.meanSelfMs(),
		"sidechannel.classify_ms":  get("sidechannel.AnalyzeContext").meanSelfMs(),
		"wcet.estimate_ms":         get("wcet.New").meanSelfMs(),
		"mitigate.synth_ms":        mit.meanSelfMs(),
		"mitigate.analyses":        mit.meanAttr("analyses"),
		"mitigate.ms_per_analysis": div(float64(mit.self)/1e6, mit.attrs["analyses"]),
		"machine.simulate_ms":      get("machine.Run").meanSelfMs(),
		"machine.replays":          mit.meanAttr("traces"),
		"runner.job_ms":            job.meanDurMs(),
		"runner.queue_wait_ms":     get("serve.handler").meanSelfMs(),
		"serve.overhead_ms":        div(float64(req.dur)/1e6-req.attrs["job_ns"]/1e6, float64(req.n)),
		"wire.encode_ms":           get("wire.encode").meanSelfMs(),
		"wire.decode_ms":           get("wire.decode").meanSelfMs(),
		"runner.report_hit_ratio": div(float64(out.pool.ReportCacheHits),
			float64(out.pool.ReportCacheHits+out.pool.ReportCacheMisses)),
		"runner.program_hit_ratio": div(float64(out.pool.CacheHits),
			float64(out.pool.CacheHits+out.pool.CacheMisses)),
		"trace.overhead_ms": out.traceOverheadMs,
	}
	// core's self time as a share of the traced timed ops' wall time: the
	// bulk of corpus_s on the WCET workloads. Without timed ops (serve-mixed)
	// the share is over every root span.
	timed := func(s *span) bool { return s.Timed }
	if !hasTimed(tr.spans) {
		timed = func(*span) bool { return true }
	}
	var coreSelf, rootDur int64
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if !timed(s) {
			continue
		}
		if s.Name == "core.AnalyzeContext" {
			coreSelf += self[s.ID]
		}
		if s.Parent == 0 {
			rootDur += s.dur()
		}
	}
	m["core.corpus_share"] = div(float64(coreSelf), float64(rootDur))
	return m
}

func hasTimed(spans []*span) bool {
	for _, s := range spans {
		if s.Timed {
			return true
		}
	}
	return false
}

// layerTable renders each layer's call count and self time.
func layerTable(tr *tracer) []string {
	self := selfTimes(tr.spans)
	type row struct {
		calls int
		self  int64
	}
	rows := map[string]*row{}
	var total int64
	for _, s := range tr.spans {
		r := rows[s.Layer]
		if r == nil {
			r = &row{}
			rows[s.Layer] = r
		}
		r.calls++
		r.self += self[s.ID]
		total += self[s.ID]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	lines := []string{fmt.Sprintf("%-12s %8s %12s %7s", "layer", "calls", "self ms", "share")}
	for _, n := range names {
		r := rows[n]
		lines = append(lines, fmt.Sprintf("%-12s %8d %12.2f %6.1f%%", n, r.calls, float64(r.self)/1e6, 100*div(float64(r.self), float64(total))))
	}
	return lines
}
