package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the span that caused it (-1 for a root); spans of one
// operation share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace (a dist episode records two spans per
// message); spans beyond it are counted as dropped, not recorded.
const maxSpans = 1 << 17

// tracer keeps spans in memory until the run ends. It records only while
// switched on, so one process can time the same operation with and without
// it; a nil tracer never records.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	mu      sync.Mutex
	run     int
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off and sets the run id of the spans that
// follow.
func (t *tracer) enable(on bool, run int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
	t.on.Store(on)
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by begin; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time, which is measured
// whether or not the tracer records.
func (t *tracer) timed(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its direct children cover. Children may overlap one another (sends
// from concurrent nodes), so coverage is the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName totals self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e6
	}
	return out
}
