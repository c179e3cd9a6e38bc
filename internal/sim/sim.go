// Package sim is a discrete-event simulator for pipeline-parallel training
// iterations. It substitutes for the paper's real clusters: a schedule from
// the schedule package is executed against per-stage forward/backward costs
// with point-to-point communication delays and per-device memory tracking,
// yielding the quantities the evaluation measures — iteration time, per-stage
// peak memory (Figure 8), micro-step times (Figure 9) and bubble time.
//
// Executing the schedule, rather than evaluating the planner's closed-form
// cost model, keeps the evaluation non-circular: AdaPipe's predicted win has
// to re-emerge from dependency-driven execution.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"adapipe/internal/schedule"
)

// StageCost carries the execution costs of one logical pipeline stage.
type StageCost struct {
	// Fwd is the forward time of one micro-batch in seconds.
	Fwd float64
	// Bwd is the backward time of one micro-batch in seconds, including
	// any recomputation the stage's strategy performs.
	Bwd float64
	// CommFwd is the time to send the stage's forward boundary activation
	// to the next stage.
	CommFwd float64
	// CommBwd is the time to send the gradient back to the previous stage.
	CommBwd float64
	// SavedPerMicro is the activation memory pinned per in-flight
	// micro-batch in bytes.
	SavedPerMicro int64
	// Static is the activation-independent memory in bytes (parameters,
	// gradients, optimizer states, recomputation buffer).
	Static int64
	// StaticSharded is the ZeRO-sharded portion of Static (optimizer
	// states). Bidirectional schedules replicate a stage's parameters and
	// gradients on two devices but re-shard optimizer states across the
	// replicas, so each hosted stage contributes only half of this part.
	StaticSharded int64
	// StaticOverhead is the fixed per-device framework overhead included
	// in Static; it is counted once per device even when a device hosts
	// two stages (bidirectional schedules).
	StaticOverhead int64
}

// Input bundles a simulation request.
type Input struct {
	// Sched is the schedule to execute.
	Sched *schedule.Schedule
	// Stages holds one StageCost per logical stage (Sched.Stages entries).
	Stages []StageCost
	// CaptureTimeline records per-op events for rendering.
	CaptureTimeline bool
	// CaptureMemory records per-device live-memory curves (the artifact
	// appendix logs memory at each forward/backward pass boundary).
	CaptureMemory bool
}

// MemPoint is one step of a device's live-memory curve.
type MemPoint struct {
	// Time is the instant of the change in seconds.
	Time float64
	// Bytes is the total device memory (static + live activations) from
	// this instant on.
	Bytes int64
}

// Event is one executed op on the timeline.
type Event struct {
	// Device is the executing device.
	Device int
	// Op is the scheduled op.
	Op schedule.Op
	// Start and End are the op's execution interval in seconds.
	Start, End float64
}

// Result is the outcome of a simulated iteration.
type Result struct {
	// IterTime is the makespan in seconds.
	IterTime float64
	// PeakMem is the per-device peak memory in bytes (static + live
	// activations; bidirectional schedules double the static part).
	PeakMem []int64
	// Busy is the per-device compute-busy time.
	Busy []float64
	// Bubble is the per-device idle (bubble) time, IterTime − Busy.
	Bubble []float64
	// MicroStep is the per-stage forward+backward time of one micro-batch
	// (Figure 9's metric).
	MicroStep []float64
	// Timeline holds the executed ops when capture was requested.
	Timeline []Event
	// MemTimeline holds per-device memory curves when capture was
	// requested.
	MemTimeline [][]MemPoint
}

// MaxPeakMem returns the largest per-device peak.
func (r Result) MaxPeakMem() int64 {
	var m int64
	for _, v := range r.PeakMem {
		if v > m {
			m = v
		}
	}
	return m
}

// BubbleRatio returns total bubble time divided by total device time.
func (r Result) BubbleRatio() float64 {
	if r.IterTime <= 0 || len(r.Bubble) == 0 {
		return 0
	}
	var b float64
	for _, v := range r.Bubble {
		b += v
	}
	return b / (r.IterTime * float64(len(r.Bubble)))
}

// opState is one op's execution: Run keeps all devices' ops in one flat
// slice, device d's from first[d] on, in the schedule's order.
type opState struct {
	start, end float64
}

// Run executes the schedule, each device running its ops in order. It
// returns an error for malformed inputs, a non-finite stage cost or a
// deadlocked schedule (an op sequence whose dependencies can never be met).
//
// Run sweeps the devices, and each commits its next ops for as long as
// their inputs are ready. An op starts at the later of its device's clock
// and its inputs' arrivals, which its predecessors alone fix, so the order
// of commits moves no result; a sweep that commits nothing is a deadlock.
func Run(in Input) (Result, error) {
	sched := in.Sched
	if sched == nil {
		return Result{}, fmt.Errorf("sim: nil schedule")
	}
	if len(in.Stages) != sched.Stages {
		return Result{}, fmt.Errorf("sim: schedule %q has %d stages, got %d stage costs",
			sched.Name, sched.Stages, len(in.Stages))
	}
	for s, c := range in.Stages {
		if sum := c.Fwd + c.Bwd + c.CommFwd + c.CommBwd; math.IsNaN(sum) || math.IsInf(sum, 0) {
			return Result{}, fmt.Errorf("sim: stage %d has a non-finite cost", s)
		}
	}
	if err := sched.Validate(); err != nil {
		return Result{}, err
	}
	devices := sched.Devices()
	first := make([]int, devices+1)
	for d, ops := range sched.Ops {
		first[d+1] = first[d] + len(ops)
	}
	total := first[devices]
	states := make([]opState, total)

	// Completion times of cell (pipeline, stage, micro), NaN = not done.
	// Validate has checked every op's cell lies inside the schedule.
	pipes := 1
	if sched.Bidirectional {
		pipes = 2
	}
	cells := pipes * sched.Stages * sched.Micros
	ends := make([]float64, 2*cells)
	for i := range ends {
		ends[i] = math.NaN()
	}
	fwdEnd, bwdEnd := ends[:cells:cells], ends[cells:]
	cell := func(pipe, stage, m int) int { return (pipe*sched.Stages+stage)*sched.Micros + m }

	// readyStart returns the earliest start of an op, or ok=false when a
	// dependency has not been scheduled yet.
	lastStage := sched.Stages - 1
	readyStart := func(op *schedule.Op, clock float64) (float64, bool) {
		start := clock
		for _, m := range op.Micros {
			switch op.Kind {
			case schedule.Forward:
				if op.Stage > 0 {
					end := fwdEnd[cell(op.Pipeline, op.Stage-1, m)]
					if math.IsNaN(end) {
						return 0, false
					}
					arrive := end + in.Stages[op.Stage-1].CommFwd
					if arrive > start {
						start = arrive
					}
				}
			case schedule.Backward:
				end := fwdEnd[cell(op.Pipeline, op.Stage, m)]
				if math.IsNaN(end) {
					return 0, false
				}
				if end > start {
					start = end
				}
				if op.Stage < lastStage {
					bend := bwdEnd[cell(op.Pipeline, op.Stage+1, m)]
					if math.IsNaN(bend) {
						return 0, false
					}
					arrive := bend + in.Stages[op.Stage+1].CommBwd
					if arrive > start {
						start = arrive
					}
				}
			}
		}
		return start, true
	}

	duration := func(op *schedule.Op) float64 {
		c := in.Stages[op.Stage]
		if op.Kind == schedule.Forward {
			return c.Fwd * float64(len(op.Micros))
		}
		return c.Bwd * float64(len(op.Micros))
	}

	clock := make([]float64, devices)
	next := make([]int, devices) // device d's first uncommitted op
	for executed := 0; executed < total; {
		swept := executed
		for d, ops := range sched.Ops {
			i := next[d]
			for ; i < len(ops); i++ {
				op := &ops[i]
				start, ok := readyStart(op, clock[d])
				if !ok {
					break
				}
				st := &states[first[d]+i]
				st.start = start
				st.end = start + duration(op)
				clock[d] = st.end
				done := fwdEnd
				if op.Kind == schedule.Backward {
					done = bwdEnd
				}
				for _, m := range op.Micros {
					done[cell(op.Pipeline, op.Stage, m)] = st.end
				}
			}
			executed += i - next[d]
			next[d] = i
		}
		if executed == swept {
			return Result{}, fmt.Errorf("sim: schedule %q deadlocked after %d of %d ops", sched.Name, executed, total)
		}
	}

	res := Result{
		Busy:      make([]float64, devices),
		Bubble:    make([]float64, devices),
		MicroStep: make([]float64, sched.Stages),
	}
	for s := range res.MicroStep {
		res.MicroStep[s] = in.Stages[s].Fwd + in.Stages[s].Bwd
	}
	for d := 0; d < devices; d++ {
		for _, st := range states[first[d]:first[d+1]] {
			if st.end > res.IterTime {
				res.IterTime = st.end
			}
			res.Busy[d] += st.end - st.start
		}
	}
	for d := 0; d < devices; d++ {
		res.Bubble[d] = res.IterTime - res.Busy[d]
	}
	res.PeakMem, res.MemTimeline = peakMemory(sched, in.Stages, states, first, in.CaptureMemory)
	if in.CaptureTimeline {
		res.Timeline = timeline(sched, states, first)
	}
	return res, nil
}

// timeline lists the executed ops by start, then device, and ops of one
// device that start together in the device's order, however they were
// committed.
func timeline(sched *schedule.Schedule, states []opState, first []int) []Event {
	events := make([]Event, 0, len(states))
	for d, ops := range sched.Ops {
		for i, st := range states[first[d]:first[d+1]] {
			events = append(events, Event{Device: d, Op: ops[i], Start: st.start, End: st.end})
		}
	}
	slices.SortStableFunc(events, func(a, b Event) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Device, b.Device)
	})
	return events
}

// memPoint is one change of a device's live activations.
type memPoint struct {
	t     float64
	delta int64
}

// byTime orders memory points by time, releases before acquisitions at
// identical instants: the backward that frees memory completes before the
// next forward's allocation lands.
func byTime(a, b memPoint) int {
	switch {
	case a.t < b.t, a.t == b.t && a.delta < b.delta:
		return -1
	case b.t < a.t, b.t == a.t && b.delta < a.delta:
		return 1
	}
	return 0
}

// peakMemory computes per-device peaks: static memory of the hosted stages
// (both pipelines for bidirectional schedules) plus the high-water mark of
// live activations, where a micro-batch's activations are pinned from the end
// of its forward to the end of its backward at that stage.
func peakMemory(sched *schedule.Schedule, stages []StageCost, states []opState, first []int, capture bool) ([]int64, [][]MemPoint) {
	devices := sched.Devices()
	// One point per op, device d's at points[first[d]:first[d+1]].
	points := make([]memPoint, len(states))
	static := make([]int64, devices)
	seen := make([]bool, devices*sched.Stages)
	for d, ops := range sched.Ops {
		seenAny := false
		for i := range ops {
			op := &ops[i]
			per := stages[op.Stage].SavedPerMicro * int64(len(op.Micros))
			if op.Kind == schedule.Backward {
				per = -per
			}
			points[first[d]+i] = memPoint{states[first[d]+i].end, per}
			if !seen[d*sched.Stages+op.Stage] {
				seen[d*sched.Stages+op.Stage] = true
				c := stages[op.Stage]
				add := c.Static
				if sched.Bidirectional {
					// Optimizer states re-shard across the two
					// pipeline replicas.
					add -= c.StaticSharded / 2
				}
				// Framework overhead is per device, not per hosted
				// stage (bidirectional and interleaved schedules
				// host several stages per device).
				if seenAny {
					add -= c.StaticOverhead
				}
				seenAny = true
				static[d] += add
			}
		}
	}
	peaks := make([]int64, devices)
	var curves [][]MemPoint
	if capture {
		curves = make([][]MemPoint, devices)
	}
	for d := 0; d < devices; d++ {
		pts := points[first[d]:first[d+1]]
		// Ends rise along a device's ops, so pts is mostly in order
		// already; points equal under byTime are equal values.
		if !slices.IsSortedFunc(pts, byTime) {
			slices.SortFunc(pts, byTime)
		}
		var live, peak int64
		if capture {
			curves[d] = make([]MemPoint, 0, len(pts)+1)
			curves[d] = append(curves[d], MemPoint{Time: 0, Bytes: static[d]})
		}
		for _, pt := range pts {
			live += pt.delta
			if live > peak {
				peak = live
			}
			if capture {
				curves[d] = append(curves[d], MemPoint{Time: pt.t, Bytes: static[d] + live})
			}
		}
		peaks[d] = static[d] + peak
	}
	return peaks, curves
}
