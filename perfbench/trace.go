package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own call into the layer's public function.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // the op or request the span belongs to
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	// Derived marks a span whose duration the program reported (a phase
	// timer or a response's elapsed time) rather than one the benchmark
	// timed around a call; its start is placed inside the parent.
	Derived bool `json:"derived,omitempty"`
	// Timed marks spans recorded inside a traced timed pass, as opposed to
	// the check pass or the sentinel.
	Timed bool `json:"timed,omitempty"`
	// Attrs are the counts measured at the same boundary.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; a nil tracer records nothing, so the same
// pipeline code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []*span
	timed bool // stamp new spans as part of a traced timed pass
}

// begin opens a span; close it with end.
func (t *tracer) begin(parent int64, req int64, layer, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &span{ID: t.next, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: time.Now().UnixNano(), Timed: t.timed}
	t.spans = append(t.spans, s)
	return s
}

// id is s's identifier, 0 (no parent) for an untraced nil span.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// find returns the first span named name recorded for req.
func (t *tracer) find(req int64, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Req == req && s.Name == name {
			return s
		}
	}
	return nil
}

// end closes s, attaching attrs (key, value pairs).
func (t *tracer) end(s *span, attrs ...any) {
	if t == nil || s == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = now
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]float64{}
		}
		s.Attrs[attrs[i].(string)] = toFloat(attrs[i+1])
	}
}

// derive adds a completed child span of parent with a duration the program
// reported, ending at end.
func (t *tracer) derive(parent *span, layer, name string, end, nanos int64, attrs ...any) *span {
	if t == nil || parent == nil {
		return nil
	}
	start := end - nanos
	if start < parent.Start {
		start = parent.Start
	}
	s := &span{Parent: parent.ID, Req: parent.Req, Layer: layer, Name: name,
		Start: start, End: end, Derived: true}
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]float64{}
		}
		s.Attrs[attrs[i].(string)] = toFloat(attrs[i+1])
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID, s.Timed = t.next, t.timed
	t.spans = append(t.spans, s)
	return s
}

// adopt merges spans recorded by a contained child process under parent.
func (t *tracer) adopt(parent *span, child []*span) {
	if t == nil || parent == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := map[int64]int64{}
	for _, s := range child {
		t.next++
		ids[s.ID] = t.next
	}
	for _, s := range child {
		c := *s
		c.ID = ids[s.ID]
		c.Req = parent.Req
		c.Timed = t.timed
		if p, ok := ids[s.Parent]; ok {
			c.Parent = p
		} else {
			c.Parent = parent.ID
		}
		t.spans = append(t.spans, &c)
	}
}

func (t *tracer) setTimed(on bool) {
	if t != nil {
		t.mu.Lock()
		t.timed = on
		t.mu.Unlock()
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("span attribute of type %T", v))
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []*span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
