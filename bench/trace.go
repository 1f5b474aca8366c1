package main

import (
	"sort"
	"time"
)

// span is one timed call from the harness into a layer's public
// function. Spans of one operation (a pass, a replay cycle, an HTTP
// request) share Op; Parent is the span that caused this one, -1 for a
// root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally. One tracer belongs to one goroutine; concurrent
// clients each own a tracer sharing the origin and are merged at exit.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// add records a span whose bounds were measured elsewhere — a duration
// the program itself reports (PassiveWindow.CloseTime) or an interval
// between two callbacks.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return len(t.spans) - 1
}

// mergeSpans concatenates per-goroutine tracers, renumbering ids so
// parents stay valid.
func mergeSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t == nil {
			continue
		}
		off := len(out)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part
// of that interval its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.End - p.Start - covered
	}
	return self
}

// selfMS collects the self times, in milliseconds, of every span named
// name.
func selfMS(spans []span, self []int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}
