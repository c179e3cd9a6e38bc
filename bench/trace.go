package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API. Spans nest: Parent is the
// index of the enclosing span (-1 at the top), and every span of one scripted
// operation carries that operation's id.
type span struct {
	Layer  string
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Op     int
	// Track separates concurrent spans (a pipeline stage); 0 otherwise.
	Track int
}

// tracer records spans of a single-threaded replay in memory. A nil tracer
// records nothing, which is how the untraced pass of the same replay runs.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp marks the start of the next scripted operation.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Op: t.op, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and any span still open inside it (an error return may
// have skipped their own end).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// in runs f inside a span.
func (t *tracer) in(layer, name string, f func()) {
	id := t.begin(layer, name)
	f()
	t.end(id)
}

// selfTimes reduces spans to per-name totals: a span's self time is its
// duration minus the part of it its direct children cover.
type spanTotal struct {
	Layer string
	Count int
	Self  time.Duration
	Total time.Duration
}

func selfTimes(spans []span) map[string]*spanTotal {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range spans {
		key := s.Layer + "." + s.Name
		st := out[key]
		if st == nil {
			st = &spanTotal{Layer: s.Layer}
			out[key] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - child[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON into dir.
func writeChrome(dir, workload string, spans []span) (string, error) {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Track + 1,
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
