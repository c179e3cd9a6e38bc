package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adapipe/internal/schedule"
)

// runReference is Run's loop as it was before the device sweeps, kept as
// the oracle of TestRunMatchesReference: every step scans each device's next
// op and commits the one that can start first (the lowest device on a tie),
// so ops are committed in start order. Its timeline is appended in commit
// order and sorted stably by (start, device).
func runReference(in Input) (Result, error) {
	sched := in.Sched
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
	nextIdx := make([]int, devices)
	var timeline []Event
	for executed := 0; executed < total; executed++ {
		bestDev, bestIdx := -1, -1
		bestStart := math.Inf(1)
		for d, ops := range sched.Ops {
			i := nextIdx[d]
			if i >= len(ops) {
				continue
			}
			if start, ok := readyStart(&ops[i], clock[d]); ok && start < bestStart {
				bestStart, bestDev, bestIdx = start, d, i
			}
		}
		if bestDev < 0 {
			return Result{}, fmt.Errorf("sim: schedule %q deadlocked after %d of %d ops", sched.Name, executed, total)
		}
		op := &sched.Ops[bestDev][bestIdx]
		st := &states[first[bestDev]+bestIdx]
		st.start = bestStart
		st.end = bestStart + duration(op)
		clock[bestDev] = st.end
		nextIdx[bestDev]++
		for _, m := range op.Micros {
			if op.Kind == schedule.Forward {
				fwdEnd[cell(op.Pipeline, op.Stage, m)] = st.end
			} else {
				bwdEnd[cell(op.Pipeline, op.Stage, m)] = st.end
			}
		}
		if in.CaptureTimeline {
			timeline = append(timeline, Event{Device: bestDev, Op: *op, Start: st.start, End: st.end})
		}
	}

	res := Result{
		Busy:      make([]float64, devices),
		Bubble:    make([]float64, devices),
		MicroStep: make([]float64, sched.Stages),
		Timeline:  timeline,
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
	slices.SortStableFunc(res.Timeline, func(a, b Event) int {
		switch {
		case a.Start < b.Start, a.Start == b.Start && a.Device < b.Device:
			return -1
		case b.Start < a.Start, b.Start == a.Start && b.Device < a.Device:
			return 1
		}
		return 0
	})
	return res, nil
}

// randomCosts draws p stage costs: compute in [0.5, 2.5) seconds, or zero
// for one stage in eight, and communication in [0, 0.1) or zero.
func randomCosts(r *rand.Rand, p int) []StageCost {
	costs := make([]StageCost, p)
	for s := range costs {
		c := StageCost{SavedPerMicro: r.Int63n(1 << 20), Static: r.Int63n(1 << 30)}
		if r.Intn(8) != 0 {
			c.Fwd = 0.5 + 2*r.Float64()
			c.Bwd = c.Fwd + 2*r.Float64()
		}
		if r.Intn(4) != 0 {
			c.CommFwd, c.CommBwd = 0.1*r.Float64(), 0.1*r.Float64()
		}
		costs[s] = c
	}
	return costs
}

// shuffle swaps k random pairs of adjacent ops on random devices. The
// result is still a valid schedule, and often a deadlocked one.
func shuffle(r *rand.Rand, s *schedule.Schedule, k int) {
	for ; k > 0; k-- {
		ops := s.Ops[r.Intn(len(s.Ops))]
		if len(ops) < 2 {
			continue
		}
		i := r.Intn(len(ops) - 1)
		ops[i], ops[i+1] = ops[i+1], ops[i]
	}
}

// sameResult reports the first field in which two results differ, bit for
// bit, or "".
func sameResult(got, want Result) string {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case math.Float64bits(got.IterTime) != math.Float64bits(want.IterTime):
		return fmt.Sprintf("IterTime %v != %v", got.IterTime, want.IterTime)
	case !bits(got.Busy, want.Busy):
		return fmt.Sprintf("Busy %v != %v", got.Busy, want.Busy)
	case !bits(got.Bubble, want.Bubble):
		return fmt.Sprintf("Bubble %v != %v", got.Bubble, want.Bubble)
	case !bits(got.MicroStep, want.MicroStep):
		return fmt.Sprintf("MicroStep %v != %v", got.MicroStep, want.MicroStep)
	case !slices.Equal(got.PeakMem, want.PeakMem):
		return fmt.Sprintf("PeakMem %v != %v", got.PeakMem, want.PeakMem)
	case len(got.Timeline) != len(want.Timeline):
		return fmt.Sprintf("%d timeline events != %d", len(got.Timeline), len(want.Timeline))
	case len(got.MemTimeline) != len(want.MemTimeline):
		return fmt.Sprintf("%d memory curves != %d", len(got.MemTimeline), len(want.MemTimeline))
	}
	for i, g := range got.Timeline {
		w := want.Timeline[i]
		if g.Device != w.Device || g.Op.Kind != w.Op.Kind || g.Op.Stage != w.Op.Stage ||
			g.Op.Pipeline != w.Op.Pipeline || !slices.Equal(g.Op.Micros, w.Op.Micros) ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Sprintf("timeline event %d: %+v != %+v", i, g, w)
		}
	}
	for d, g := range got.MemTimeline {
		if !slices.EqualFunc(g, want.MemTimeline[d], func(a, b MemPoint) bool {
			return math.Float64bits(a.Time) == math.Float64bits(b.Time) && a.Bytes == b.Bytes
		}) {
			return fmt.Sprintf("device %d memory curve differs", d)
		}
	}
	return ""
}

// TestRunMatchesReference is the sweep's differential test: on every
// builder's schedule (and on copies with adjacent ops swapped, which often
// deadlock) under random costs with communication, Run and runReference
// give the same bits in every field of the result, timeline and memory
// curves included, or the same error text.
func TestRunMatchesReference(t *testing.T) {
	builders := []struct {
		name  string
		build func(p, n int) (*schedule.Schedule, error)
	}{
		{"1F1B", schedule.OneFOneB},
		{"GPipe", schedule.GPipe},
		{"Chimera", schedule.Chimera},
		{"ChimeraD", schedule.ChimeraD},
		{"Interleaved-2", func(p, n int) (*schedule.Schedule, error) { return schedule.Interleaved(p, n, 2) }},
	}
	shapes := []struct{ p, n int }{{2, 4}, {3, 7}, {4, 8}, {8, 32}, {8, 128}, {16, 64}, {32, 64}}
	cases, deadlocks := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, sh := range shapes {
			for _, b := range builders {
				for _, swaps := range []int{0, 1, 1 + sh.p} {
					s, err := b.build(sh.p, sh.n)
					if err != nil {
						continue // a shape the builder does not take
					}
					shuffle(r, s, swaps)
					in := Input{Sched: s, Stages: randomCosts(r, s.Stages), CaptureTimeline: true, CaptureMemory: true}
					got, gerr := Run(in)
					want, werr := runReference(in)
					cases++
					switch {
					case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
						t.Fatalf("seed %d %s(%d,%d) %d swaps: Run error %v, reference %v", seed, b.name, sh.p, sh.n, swaps, gerr, werr)
					case gerr != nil:
						deadlocks++
					default:
						if diff := sameResult(got, want); diff != "" {
							t.Fatalf("seed %d %s(%d,%d) %d swaps: %s", seed, b.name, sh.p, sh.n, swaps, diff)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d deadlocked", cases, deadlocks)
	if deadlocks == 0 || deadlocks == cases {
		t.Fatalf("%d of %d cases deadlocked: the errors or the results go unchecked", deadlocks, cases)
	}
}
