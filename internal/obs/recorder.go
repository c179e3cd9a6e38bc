// Package obs is the observability layer of the live pipeline engine: a
// wall-clock op recorder for the goroutine 1F1B executor, a context-propagated
// request tracer, and a Prometheus-style text exposition of engine and search
// gauges and latency histograms.
//
// A recorded Trace is structurally compatible with sim.Result (via
// Trace.Result), so the trace-package renderers — Gantt, ChromeTrace,
// MemoryCSV — work on measured runs unchanged.
package obs

import (
	"sort"
	"time"

	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// Span is one executed op of a measured pipeline iteration. Start/End bound
// the compute interval only; the channel-wait that preceded it is reported
// separately as Wait, so idle time renders as idle in the Gantt view and
// stall time stays attributable per op (the bubble anatomy Zero Bubble
// Pipeline Parallelism shows dominates 1F1B efficiency).
type Span struct {
	// Stage is the executing pipeline stage (device).
	Stage int
	// Op is the scheduled op the span measured.
	Op schedule.Op
	// Start and End are the compute interval in seconds since the
	// iteration started.
	Start, End float64
	// Wait is the channel-wait (stall) time spent blocked on the upstream
	// activation or downstream gradient before compute began, in seconds.
	Wait float64
	// LiveBytes is the stage's live activation footprint right after the
	// op (forward pins a context, backward releases one).
	LiveBytes int64
}

// Trace is one measured pipeline iteration — the engine-side counterpart of
// sim.Result.
type Trace struct {
	// Spans holds every executed op, sorted by (Start, Stage).
	Spans []Span
	// WallTime is the measured makespan in seconds (last compute end).
	WallTime float64
	// Busy is the per-stage total compute time.
	Busy []float64
	// Stall is the per-stage total channel-wait time.
	Stall []float64
	// PeakBytes is the per-stage live-activation high-water mark.
	PeakBytes []int64
	// MemCurve is the per-stage live-activation curve (activation bytes
	// only; the engine has no static parameter/optimizer accounting).
	MemCurve [][]sim.MemPoint
}

// Result converts the trace into a sim.Result so the existing renderers
// (trace.Gantt, trace.ChromeTrace, trace.MemoryCSV) and comparison helpers
// apply to measured runs unchanged. PeakMem and MemTimeline carry live
// activation bytes only — the measured analogue of the simulator's
// activation term, without the modeled static part.
func (t *Trace) Result() sim.Result {
	p := len(t.Busy)
	res := sim.Result{
		IterTime:    t.WallTime,
		PeakMem:     append([]int64(nil), t.PeakBytes...),
		Busy:        append([]float64(nil), t.Busy...),
		Bubble:      make([]float64, p),
		MicroStep:   make([]float64, p),
		Timeline:    make([]sim.Event, 0, len(t.Spans)),
		MemTimeline: make([][]sim.MemPoint, p),
	}
	for d := 0; d < p; d++ {
		res.Bubble[d] = t.WallTime - t.Busy[d]
		res.MemTimeline[d] = append([]sim.MemPoint(nil), t.MemCurve[d]...)
	}
	fwd := make([]float64, p)
	fwdN := make([]float64, p)
	bwd := make([]float64, p)
	bwdN := make([]float64, p)
	for _, sp := range t.Spans {
		res.Timeline = append(res.Timeline, sim.Event{
			Device: sp.Stage, Op: sp.Op, Start: sp.Start, End: sp.End,
		})
		micros := float64(len(sp.Op.Micros))
		if sp.Op.Kind == schedule.Forward {
			fwd[sp.Stage] += sp.End - sp.Start
			fwdN[sp.Stage] += micros
		} else {
			bwd[sp.Stage] += sp.End - sp.Start
			bwdN[sp.Stage] += micros
		}
	}
	for s := 0; s < p; s++ {
		if fwdN[s] > 0 {
			res.MicroStep[s] += fwd[s] / fwdN[s]
		}
		if bwdN[s] > 0 {
			res.MicroStep[s] += bwd[s] / bwdN[s]
		}
	}
	sort.Slice(res.Timeline, func(i, j int) bool {
		if res.Timeline[i].Start != res.Timeline[j].Start {
			return res.Timeline[i].Start < res.Timeline[j].Start
		}
		return res.Timeline[i].Device < res.Timeline[j].Device
	})
	return res
}

// StallRatio returns total stall time divided by total device time, the
// measured analogue of sim.Result.BubbleRatio restricted to channel waits.
func (t *Trace) StallRatio() float64 {
	if t.WallTime <= 0 || len(t.Stall) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Stall {
		s += v
	}
	return s / (t.WallTime * float64(len(t.Stall)))
}

// Recorder captures one pipeline iteration. It is opt-in: the executor's hot
// path performs a nil check per op and otherwise runs untouched, so a nil
// recorder costs no allocations and no clock reads. Each stage goroutine
// writes only its own StageRecorder, making recording race-free without
// locks; Trace must be called only after the iteration's goroutines joined.
type Recorder struct {
	start  time.Time
	stages []*StageRecorder
}

// NewRecorder returns an empty recorder; Reset arms it for an iteration.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset prepares the recorder for one iteration over the given stage count
// and marks the iteration start instant. Any previously recorded iteration
// is discarded.
func (r *Recorder) Reset(stages int) {
	r.stages = make([]*StageRecorder, stages)
	for i := range r.stages {
		r.stages[i] = &StageRecorder{}
	}
	r.start = time.Now()
}

// Stage returns stage s's private recorder. Each stage goroutine must use
// only its own.
func (r *Recorder) Stage(s int) *StageRecorder { return r.stages[s] }

// Trace assembles the recorded iteration. Call only after every stage
// goroutine has finished (the executor joins them before returning).
func (r *Recorder) Trace() *Trace {
	p := len(r.stages)
	t := &Trace{
		Busy:      make([]float64, p),
		Stall:     make([]float64, p),
		PeakBytes: make([]int64, p),
		MemCurve:  make([][]sim.MemPoint, p),
	}
	for s, sr := range r.stages {
		t.MemCurve[s] = append(t.MemCurve[s], sim.MemPoint{Time: 0, Bytes: 0})
		for _, raw := range sr.spans {
			sp := Span{
				Stage:     s,
				Op:        raw.op,
				Start:     raw.start.Sub(r.start).Seconds(),
				End:       raw.end.Sub(r.start).Seconds(),
				Wait:      raw.wait.Seconds(),
				LiveBytes: raw.live,
			}
			t.Spans = append(t.Spans, sp)
			t.Busy[s] += sp.End - sp.Start
			t.Stall[s] += sp.Wait
			if sp.LiveBytes > t.PeakBytes[s] {
				t.PeakBytes[s] = sp.LiveBytes
			}
			if sp.End > t.WallTime {
				t.WallTime = sp.End
			}
			t.MemCurve[s] = append(t.MemCurve[s], sim.MemPoint{Time: sp.End, Bytes: sp.LiveBytes})
		}
	}
	sort.Slice(t.Spans, func(i, j int) bool {
		if t.Spans[i].Start != t.Spans[j].Start {
			return t.Spans[i].Start < t.Spans[j].Start
		}
		return t.Spans[i].Stage < t.Spans[j].Stage
	})
	return t
}

// StageRecorder is one stage goroutine's private span buffer.
type StageRecorder struct {
	spans []rawSpan
}

type rawSpan struct {
	op         schedule.Op
	start, end time.Time
	wait       time.Duration
	live       int64
}

// Record appends one completed op: its compute interval [start, end], the
// channel-wait that preceded it, and the live activation bytes after it.
func (sr *StageRecorder) Record(op schedule.Op, start, end time.Time, wait time.Duration, liveBytes int64) {
	sr.spans = append(sr.spans, rawSpan{op: op, start: start, end: end, wait: wait, live: liveBytes})
}
