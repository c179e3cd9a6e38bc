package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock advancing a fixed step per reading.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestTracerSpanOffsets(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	tr := NewTracer("t1", clk.Now, 0) // origin consumes the first tick
	sp := tr.Start("work", CatPhase)
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	got := spans[0]
	want := TraceSpan{Name: "work", Cat: CatPhase, Start: time.Millisecond, End: 2 * time.Millisecond}
	if got != want {
		t.Errorf("span = %+v, want %+v", got, want)
	}
	if tr.ID() != "t1" {
		t.Errorf("ID() = %q, want t1", tr.ID())
	}
}

func TestTracerAddUsesCallerIntervals(t *testing.T) {
	clk := newFakeClock(time.Second)
	tr := NewTracer("t2", clk.Now, 0)
	start := clk.Now() // origin+1s
	end := clk.Now()   // origin+2s
	tr.Add("queue", CatPhase, start, end)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Start != time.Second || spans[0].End != 2*time.Second {
		t.Errorf("spans = %+v, want one [1s,2s] span", spans)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.ID() != "" || tr.Spans() != nil {
		t.Error("nil tracer accessors must return zero values")
	}
	sp := tr.Start("x", CatSolve)
	sp.End() // must not panic
	tr.Add("y", CatPhase, time.Unix(0, 0), time.Unix(1, 0))
	if b, err := tr.Chrome(); err != nil || !bytes.Contains(b, []byte("traceEvents")) {
		t.Errorf("nil tracer Chrome() = %s, %v; want empty document", b, err)
	}
}

func TestTracerContextRoundTrip(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	tr := NewTracer("t3", clk.Now, 0)
	ctx := WithTracer(context.Background(), tr)
	if got := TracerFrom(ctx); got != tr {
		t.Errorf("TracerFrom returned %p, want %p", got, tr)
	}
	if got := TracerFrom(context.Background()); got != nil {
		t.Errorf("TracerFrom on a bare context = %p, want nil", got)
	}
	// WithTracer(nil) must be a no-op, not store a typed nil.
	if got := TracerFrom(WithTracer(context.Background(), nil)); got != nil {
		t.Errorf("WithTracer(nil) stored %p", got)
	}
}

// TestTracerSolveLimit checks the drop policy: solve spans beyond the limit
// are dropped, structural spans always survive.
func TestTracerSolveLimit(t *testing.T) {
	clk := newFakeClock(time.Microsecond)
	tr := NewTracer("t4", clk.Now, 2)
	for i := 0; i < 5; i++ {
		tr.Start("knapsack", CatSolve).End()
	}
	tr.Start("search.partition", CatSearch).End()
	tr.Start("request", CatRequest).End()
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 2 solves + 2 structural", len(spans))
	}
	if spans[2].Cat != CatSearch || spans[3].Cat != CatRequest {
		t.Errorf("structural spans were dropped: %+v", spans)
	}
}

func TestTracerConcurrentRecording(t *testing.T) {
	clk := newFakeClock(time.Nanosecond)
	tr := NewTracer("t5", clk.Now, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start("knapsack", CatSolve).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Errorf("recorded %d spans, want 800", got)
	}
}

func TestTracerChromeDeterministic(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	tr := NewTracer("t6", clk.Now, 0)
	for i := 0; i < 3; i++ {
		tr.Start("knapsack", CatSolve).End()
	}
	tr.Start("search.partition", CatSearch).End()
	b1, err := tr.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tr.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("repeated Chrome() renders of one trace differ")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("Chrome output does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("exported %d events, want 4", len(doc.TraceEvents))
	}
	// Events are ordered by start timestamp; the first solve began at
	// origin+1ms and lasted one tick.
	first := doc.TraceEvents[0]
	if first.Ph != "X" || first.Ts != 1000 || first.Dur != 1000 || first.Tid != 0 {
		t.Errorf("first event = %+v, want complete event at ts=1000us dur=1000us tid=0", first)
	}
	if !strings.Contains(string(b1), `"cat": "search"`) {
		t.Error("search-category span missing from export")
	}
}

// TestNilTracerZeroAllocs pins the disabled-tracing hot path: starting and
// ending a span on a nil tracer must not allocate (it is a pointer check,
// like the nil op recorder).
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("knapsack", CatSolve)
		sp.End()
		tr.Add("phase", CatPhase, time.Time{}, time.Time{})
	})
	if allocs != 0 {
		t.Errorf("nil-tracer span cycle allocated %v times per op, want 0", allocs)
	}
}

func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("knapsack", CatSolve)
		sp.End()
	}
}

func BenchmarkTracerSpan(b *testing.B) {
	clk := newFakeClock(time.Nanosecond)
	tr := NewTracer("bench", clk.Now, 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("knapsack", CatSolve)
		sp.End()
	}
}
