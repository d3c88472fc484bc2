package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// observation (or one HTTP request) share Trace; Parent is the index of
// the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's origin
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
}

// tracer keeps spans in memory for the length of a traced run. All of
// it lives in the harness: the spans are taken around calls into the
// layers' public seams, not inside them.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	// last is the most recent span begun per trace: the parent of the
	// next one. An enclosing span (still open) and a causal predecessor
	// (already closed) link the same way.
	last map[int64]int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), last: make(map[int64]int)}
}

// begin opens a span now; a nil tracer (tracing off) returns -1 and
// costs one comparison.
func (t *tracer) begin(name string, trace int64) int {
	if t == nil {
		return -1
	}
	at := time.Now()
	t.mu.Lock()
	parent := -1
	// Trace 0 means the caller could not tell which request it serves
	// (a handler that drops its context); such spans stay roots.
	if p, ok := t.last[trace]; ok && trace != 0 {
		parent = p
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.origin)), Parent: parent, Trace: trace})
	if trace != 0 {
		t.last[trace] = idx
	}
	t.mu.Unlock()
	return idx
}

// link makes span idx the parent of whatever begins next in each of the
// given traces: one batch publish causes the inserts of all the
// observations it carried.
func (t *tracer) link(idx int, traces ...int64) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	for _, tr := range traces {
		t.last[tr] = idx
	}
	t.mu.Unlock()
}

func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[idx].End = now
	t.mu.Unlock()
}

// snapshot copies the spans; one still open when the run ends is
// closed at its start so that indices (and so Parent links) hold.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] -= covered
	}
	return out
}

// durations collects the lengths of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// byTrace indexes the first span of each name per trace id.
func byTrace(spans []span, name string) map[int64]span {
	out := make(map[int64]span)
	for _, s := range spans {
		if s.Name == name {
			if _, dup := out[s.Trace]; !dup {
				out[s.Trace] = s
			}
		}
	}
	return out
}

// writeTrace dumps the spans with their self times for offline reading.
func writeTrace(path string, origin time.Time, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, Self: self[i]}
	}
	data, err := json.Marshal(map[string]any{"origin": origin, "unit": "ns", "spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
