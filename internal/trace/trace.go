// Package trace renders simulated pipeline timelines as ASCII Gantt charts
// in the style of the paper's Figure 2/3 schedules, and exports them as
// Chrome-trace JSON for interactive inspection.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// Gantt renders the timeline as one text row per device. width is the chart
// width in characters; each op is drawn as a run of cells labeled with its
// micro-batch id (lowercase letters beyond 9), uppercase F rows on top.
// Idle time renders as '.'.
func Gantt(res sim.Result, devices int, width int) string {
	if len(res.Timeline) == 0 {
		return "(timeline not captured)\n"
	}
	makespan := res.IterTime
	if makespan <= 0 {
		return "(empty timeline)\n"
	}
	rows := make([][]byte, devices)
	for d := range rows {
		rows[d] = []byte(strings.Repeat(".", width))
	}
	for _, ev := range res.Timeline {
		lo := int(ev.Start / makespan * float64(width))
		hi := int(ev.End / makespan * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := cellLabel(ev.Op)
		for c := lo; c < hi; c++ {
			rows[ev.Device][c] = ch
		}
	}
	var b strings.Builder
	for d := 0; d < devices; d++ {
		fmt.Fprintf(&b, "dev %2d |%s|\n", d, rows[d])
	}
	// The footer right-aligns the makespan under the chart's right edge; for
	// charts narrower than the label the padding would go negative.
	pad := width - len(fmt.Sprintf("%.3fs", makespan))
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(&b, "        0%s%.3fs\n", strings.Repeat(" ", pad), makespan)
	return b.String()
}

// cellLabel picks the drawing character of an op: digits (then letters) for
// forward passes, and the same micro id on backward passes rendered in a
// distinct alphabet ('A'… for micros 0…) so F/B phases are distinguishable.
func cellLabel(op schedule.Op) byte {
	if len(op.Micros) == 0 {
		return '?'
	}
	m := op.Micros[0] % 36
	if op.Kind == schedule.Forward {
		if m < 10 {
			return byte('0' + m)
		}
		return byte('a' + m - 10)
	}
	if m < 26 {
		return byte('A' + m)
	}
	return '#'
}

// MemoryCSV renders captured per-device memory curves as CSV
// (device,time_sec,bytes), the format the paper's artifact logs per
// forward/backward pass for its memory analysis.
func MemoryCSV(res sim.Result) string {
	var b strings.Builder
	b.WriteString("device,time_sec,bytes\n")
	for d, curve := range res.MemTimeline {
		for _, pt := range curve {
			fmt.Fprintf(&b, "%d,%.9f,%d\n", d, pt.Time, pt.Bytes)
		}
	}
	return b.String()
}

// chromeEvent is one Chrome-trace "complete" event.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// ChromeTrace serializes the timeline in the Chrome trace-event format
// (load via chrome://tracing or Perfetto).
func ChromeTrace(res sim.Result) ([]byte, error) {
	events := make([]chromeEvent, 0, len(res.Timeline))
	for _, ev := range res.Timeline {
		cat := "forward"
		if ev.Op.Kind == schedule.Backward {
			cat = "backward"
		}
		events = append(events, chromeEvent{
			Name: ev.Op.String(),
			Cat:  cat,
			Ph:   "X",
			Ts:   ev.Start * 1e6,
			Dur:  (ev.End - ev.Start) * 1e6,
			Pid:  0,
			Tid:  ev.Device,
		})
	}
	return marshalChrome(events)
}

// SpanEvent is one completed interval of a request-scoped trace, expressed
// in seconds from the trace origin. It is the renderer-facing shape of an
// obs tracer span (the obs package converts; trace cannot import obs without
// a cycle through core).
type SpanEvent struct {
	// Name labels the interval; Cat is its category (request/phase/...).
	Name, Cat string
	// Start and Dur position the interval, in seconds from the origin.
	Start, Dur float64
}

// ChromeSpans serializes request-scoped spans through the same Chrome
// trace-event path as the simulated timelines, so a stored request trace
// renders byte-identically on every export. Every span renders on track 0:
// a request's spans come from one goroutine.
func ChromeSpans(spans []SpanEvent) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   sp.Start * 1e6,
			Dur:  sp.Dur * 1e6,
			Pid:  0,
		})
	}
	return marshalChrome(events)
}

// marshalChrome orders events deterministically and renders the trace
// document. Stable sort with a full tie-break: events at equal timestamps
// (common in simulated timelines) must serialize identically across runs.
func marshalChrome(events []chromeEvent) ([]byte, error) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Name < events[j].Name
	})
	return json.MarshalIndent(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}, "", "  ")
}
