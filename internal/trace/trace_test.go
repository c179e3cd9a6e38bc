package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

func captured(t *testing.T) sim.Result {
	t.Helper()
	s, err := schedule.OneFOneB(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]sim.StageCost, 3)
	for i := range costs {
		costs[i] = sim.StageCost{Fwd: 1, Bwd: 2}
	}
	r, err := sim.Run(sim.Input{Sched: s, Stages: costs, CaptureTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGanttShape(t *testing.T) {
	r := captured(t)
	out := Gantt(r, 3, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 3 device rows + time axis
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for d := 0; d < 3; d++ {
		if !strings.HasPrefix(lines[d], "dev ") {
			t.Errorf("row %d = %q", d, lines[d])
		}
		bar := lines[d][strings.Index(lines[d], "|")+1 : strings.LastIndex(lines[d], "|")]
		if len(bar) != 60 {
			t.Errorf("row %d bar width = %d, want 60", d, len(bar))
		}
	}
	// Stage 0 starts at time zero (no leading idle); the last stage idles
	// until the first forward propagates down the pipeline.
	if strings.HasPrefix(lines[0][strings.Index(lines[0], "|")+1:], ".") {
		t.Error("stage 0 should start at time zero")
	}
	if !strings.HasPrefix(lines[2][strings.Index(lines[2], "|")+1:], ".") {
		t.Error("last stage should wait for the pipeline to fill")
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := Gantt(sim.Result{}, 2, 40); !strings.Contains(out, "not captured") {
		t.Errorf("empty timeline output = %q", out)
	}
}

func TestGanttNarrowWidth(t *testing.T) {
	// The time-axis label ("12.000s" etc.) can be wider than the chart;
	// the footer padding used to underflow and panic in strings.Repeat.
	r := captured(t)
	for _, width := range []int{1, 2, 5, 7} {
		out := Gantt(r, 3, width)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if len(lines) != 4 {
			t.Fatalf("width %d: got %d lines:\n%s", width, len(lines), out)
		}
		if !strings.Contains(lines[3], "s") {
			t.Errorf("width %d: footer %q lacks makespan", width, lines[3])
		}
	}
}

func TestGanttLabels(t *testing.T) {
	fwd := cellLabel(schedule.Op{Kind: schedule.Forward, Micros: []int{3}})
	if fwd != '3' {
		t.Errorf("forward label = %c", fwd)
	}
	if got := cellLabel(schedule.Op{Kind: schedule.Forward, Micros: []int{11}}); got != 'b' {
		t.Errorf("forward label for micro 11 = %c, want b", got)
	}
	bwd := cellLabel(schedule.Op{Kind: schedule.Backward, Micros: []int{2}})
	if bwd != 'C' {
		t.Errorf("backward label = %c, want C", bwd)
	}
	if got := cellLabel(schedule.Op{Kind: schedule.Backward, Micros: []int{30}}); got != '#' {
		t.Errorf("backward label for micro 30 = %c, want #", got)
	}
	if got := cellLabel(schedule.Op{Kind: schedule.Forward}); got != '?' {
		t.Errorf("label for op without micros = %c, want ?", got)
	}
}

func TestChromeTrace(t *testing.T) {
	r := captured(t)
	data, err := ChromeTrace(r)
	if err != nil {
		t.Fatal(err)
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
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3*2*6 {
		t.Fatalf("%d events, want 36", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
		if ev.Cat != "forward" && ev.Cat != "backward" {
			t.Errorf("event %d category %q", i, ev.Cat)
		}
		if i > 0 && ev.Ts < doc.TraceEvents[i-1].Ts {
			t.Error("events not sorted by start time")
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	// Simulated timelines routinely contain events with identical start
	// times (e.g. different stages kicking off at t=0). The serialization
	// must not depend on the incoming event order.
	mkOp := func(kind schedule.Kind, stage, micro int) schedule.Op {
		return schedule.Op{Kind: kind, Stage: stage, Micros: []int{micro}}
	}
	events := []sim.Event{
		{Device: 1, Op: mkOp(schedule.Forward, 1, 0), Start: 0, End: 1},
		{Device: 0, Op: mkOp(schedule.Forward, 0, 0), Start: 0, End: 1},
		{Device: 0, Op: mkOp(schedule.Forward, 0, 1), Start: 1, End: 2},
		{Device: 1, Op: mkOp(schedule.Backward, 1, 0), Start: 1, End: 3},
	}
	base := sim.Result{Timeline: events, IterTime: 3}
	want, err := ChromeTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the event order; the serialized bytes must not move.
	rev := make([]sim.Event, len(events))
	for i, ev := range events {
		rev[len(events)-1-i] = ev
	}
	got, err := ChromeTrace(sim.Result{Timeline: rev, IterTime: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("ChromeTrace depends on event order:\n%s\nvs\n%s", want, got)
	}
	// And repeated runs on the same input are byte-identical.
	again, err := ChromeTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, again) {
		t.Error("ChromeTrace not reproducible on identical input")
	}
}

func TestChromeSpans(t *testing.T) {
	spans := []SpanEvent{
		{Name: "request", Cat: "request", Start: 0, Dur: 0.010},
		{Name: "search", Cat: "phase", Start: 0.002, Dur: 0.007},
		{Name: "search.partition", Cat: "phase", Start: 0.003, Dur: 0.002},
		{Name: "knapsack", Cat: "solve", Start: 0.003, Dur: 0.001},
	}
	data, err := ChromeSpans(spans)
	if err != nil {
		t.Fatal(err)
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
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(doc.TraceEvents))
	}
	// Seconds convert to Chrome's microseconds; complete events throughout.
	if ev := doc.TraceEvents[0]; ev.Name != "request" || ev.Ph != "X" || ev.Ts != 0 || ev.Dur != 10000 {
		t.Errorf("first event = %+v, want the request span at ts=0 dur=10000us", ev)
	}
	// Every span renders on track 0, and equal-Ts events tie-break on Name.
	for _, ev := range doc.TraceEvents {
		if ev.Tid != 0 {
			t.Errorf("event %+v off track 0", ev)
		}
	}
	if doc.TraceEvents[2].Name != "knapsack" || doc.TraceEvents[3].Name != "search.partition" {
		t.Errorf("equal-timestamp events out of name order: %+v", doc.TraceEvents[2:])
	}

	// Byte-determinism: reversed input order must serialize identically.
	rev := make([]SpanEvent, len(spans))
	for i, sp := range spans {
		rev[len(spans)-1-i] = sp
	}
	again, err := ChromeSpans(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("ChromeSpans depends on input order")
	}
}

func TestMemoryCSV(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 3)
	costs := []sim.StageCost{{Fwd: 1, Bwd: 2, SavedPerMicro: 5, Static: 50}, {Fwd: 1, Bwd: 2, SavedPerMicro: 5, Static: 50}}
	r, err := sim.Run(sim.Input{Sched: s, Stages: costs, CaptureMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	out := MemoryCSV(r)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "device,time_sec,bytes" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+2*(2*3+1) {
		t.Errorf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Errorf("first row = %q", lines[1])
	}
}
