package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer. Spans of one
// iteration (or one request) share Iter; Parent is the enclosing span's
// ID, 0 at the root. Times are offsets from the start of the run.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Iter   int           `json:"iter"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// untraced is the shared disabled tracer.
var untraced = newTracer(false)

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(iter, parent int, name string) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(iter, parent int, name string, fn func()) {
	id := t.begin(iter, parent, name)
	fn()
	t.end(id)
}

// timed runs fn inside a span and, when tracing, records its seconds in
// lt as the per-layer metric name+"_s".
func (t *tracer) timed(lt layerTimes, iter, parent int, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	t0 := time.Now()
	t.do(iter, parent, name, fn)
	lt.add(name+"_s", time.Since(t0).Seconds())
}

// done returns the closed spans.
func (t *tracer) done() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
