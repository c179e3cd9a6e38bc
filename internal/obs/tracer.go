package obs

import (
	"context"
	"sync"
	"time"

	"adapipe/internal/trace"
)

// Clock supplies wall-clock readings. Every component on the serving and
// search paths that needs a timestamp — the request tracer, the latency
// histograms, the planner's SearchStats effort counters — takes an injected
// Clock instead of calling time.Now directly, so tests can drive spans and
// wall counters off a deterministic fake. RealClock is the single place the
// process constructs the real clock.
type Clock func() time.Time

// RealClock returns the process wall clock as a Clock.
func RealClock() Clock { return time.Now }

// Span category values. Categories let a consumer reason about a trace
// without reconstructing the parent tree: exactly one CatRequest span bounds
// the request, the CatPhase spans partition it (their durations summed
// against the root is the trace's coverage of the request wall time), and
// CatSearch/CatSolve spans are nested detail inside the "search" phase.
const (
	// CatRequest marks the root span covering one whole request.
	CatRequest = "request"
	// CatPhase marks a top-level request phase (decode, cache, queue,
	// search, simulate, encode, coalesce). Phases are disjoint: their
	// summed duration is the accounted share of the request wall time.
	CatPhase = "phase"
	// CatSearch marks a search sub-phase inside the planner (memo claim,
	// partition DP, stage assembly).
	CatSearch = "search"
	// CatSolve marks one knapsack solve inside the partition DP. Solve
	// spans are the only category subject to the tracer's span limit:
	// when the limit is reached further solves are dropped rather than
	// recorded, so the structural spans always survive.
	CatSolve = "solve"
)

// TraceSpan is one completed interval of a request-scoped trace. (Span is
// taken by the pipeline-op recorder; the two record different worlds — op
// spans are simulated execution, trace spans are real request time.) Start
// and End are offsets from the trace origin, so a span carries no absolute
// wall time and a trace recorded under a fake clock is fully deterministic.
type TraceSpan struct {
	// Name labels the interval ("queue", "search.partition", "knapsack").
	Name string
	// Cat is the span's category (CatRequest, CatPhase, ...).
	Cat string
	// Start and End bound the interval as offsets from the trace origin.
	Start, End time.Duration
}

// Tracer records the spans of one request. It is created at ingress with a
// per-request ID, propagated through the context (WithTracer/TracerFrom),
// and read back out after the request completes. A nil *Tracer is the
// disabled state: every method is nil-safe, Start degenerates to a pointer
// check returning a zero SpanHandle, and no clock is read — the instrumented
// hot paths cost zero allocations when tracing is off
// (TestNilTracerZeroAllocs).
//
// Concurrent Start/End calls are safe: spans are recorded under the mutex.
type Tracer struct {
	id     string
	clock  Clock
	origin time.Time
	limit  int

	mu sync.Mutex
	// spans holds completed spans in End order.
	// guarded by mu
	spans []TraceSpan
}

// DefaultSpanLimit bounds the CatSolve spans kept per trace: a GPT-3-scale
// search runs thousands of knapsack solves, and a trace exists to show the
// phase anatomy, not to grow without bound. Structural spans (request,
// phases, search sub-phases) are never dropped.
const DefaultSpanLimit = 4096

// NewTracer builds a tracer for one request. id is the trace identity the
// ring buffer and the X-Adapipe-Trace header use; clock must be non-nil
// (inject RealClock() in production, a fake in tests); limit bounds the
// CatSolve spans kept (0 selects DefaultSpanLimit). The trace origin is the
// clock reading at construction.
func NewTracer(id string, clock Clock, limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{id: id, clock: clock, origin: clock(), limit: limit}
}

// ID returns the trace identity ("" on a nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SpanHandle is an open span. It is a value, not a pointer: starting and
// ending a span allocates nothing beyond the tracer's amortized span buffer,
// and the zero SpanHandle (from a nil tracer) is an inert no-op.
type SpanHandle struct {
	t     *Tracer
	name  string
	cat   string
	start time.Duration
}

// Start opens a span. On a nil tracer it returns the zero handle without
// reading the clock.
func (t *Tracer) Start(name, cat string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, cat: cat, start: t.clock().Sub(t.origin)}
}

// End closes the span and records it. No-op on the zero handle.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.record(TraceSpan{Name: h.name, Cat: h.cat, Start: h.start, End: h.t.clock().Sub(h.t.origin)})
}

// Add records a completed interval measured by the caller with its own clock
// readings — the serving layer measures each phase once and feeds the same
// interval to both its latency histogram and the trace. No-op on nil.
func (t *Tracer) Add(name, cat string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(TraceSpan{Name: name, Cat: cat, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

func (t *Tracer) record(sp TraceSpan) {
	t.mu.Lock()
	if sp.Cat != CatSolve || len(t.spans) < t.limit {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in End order (nil on a nil
// tracer).
func (t *Tracer) Spans() []TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceSpan(nil), t.spans...)
}

// Chrome exports the trace in the Chrome trace-event format through the
// trace-package renderer the simulated and measured timelines already use.
// Rendering the same stored trace repeatedly yields byte-identical output
// (the renderer's sort is stable over the fixed recorded order).
func (t *Tracer) Chrome() ([]byte, error) {
	spans := t.Spans()
	events := make([]trace.SpanEvent, len(spans))
	for i, sp := range spans {
		events[i] = trace.SpanEvent{
			Name:  sp.Name,
			Cat:   sp.Cat,
			Start: sp.Start.Seconds(),
			Dur:   (sp.End - sp.Start).Seconds(),
		}
	}
	return trace.ChromeSpans(events)
}

// tracerKey is the context key WithTracer stores under.
type tracerKey struct{}

// WithTracer returns a context carrying the tracer. Everything downstream of
// the serving layer — core.PlanContext, baseline.EvaluateContext — picks it
// up via TracerFrom.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the context's tracer, or nil when the request is not
// being traced. The nil result flows through the nil-safe Tracer methods, so
// call sites need no branch.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
