package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"adapipe/internal/schedule"
)

func uniform(p int, f, b float64, saved, static int64) []StageCost {
	costs := make([]StageCost, p)
	for i := range costs {
		costs[i] = StageCost{Fwd: f, Bwd: b, SavedPerMicro: saved, Static: static}
	}
	return costs
}

func run(t *testing.T, s *schedule.Schedule, costs []StageCost) Result {
	t.Helper()
	r, err := Run(Input{Sched: s, Stages: costs})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOneFOneBMatchesClosedForm(t *testing.T) {
	// Uniform stages, no comm: makespan = (n+p−1)(F+B).
	for _, tc := range []struct{ p, n int }{{2, 4}, {4, 8}, {8, 32}, {1, 5}} {
		s, err := schedule.OneFOneB(tc.p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		r := run(t, s, uniform(tc.p, 1, 2, 0, 0))
		want := float64(tc.n+tc.p-1) * 3
		if math.Abs(r.IterTime-want) > 1e-9 {
			t.Errorf("p=%d n=%d: iter %g, want %g", tc.p, tc.n, r.IterTime, want)
		}
	}
}

func TestGPipeSameMakespanUniform(t *testing.T) {
	// With uniform costs GPipe and 1F1B have identical bubble counts (§2).
	const p, n = 3, 6
	g, _ := schedule.GPipe(p, n)
	o, _ := schedule.OneFOneB(p, n)
	rg := run(t, g, uniform(p, 1, 2, 0, 0))
	ro := run(t, o, uniform(p, 1, 2, 0, 0))
	if rg.IterTime != ro.IterTime {
		t.Errorf("GPipe %g vs 1F1B %g", rg.IterTime, ro.IterTime)
	}
}

func TestMemoryHighWaterMarks(t *testing.T) {
	const p, n = 4, 12
	const saved, static = 10, 1000
	o, _ := schedule.OneFOneB(p, n)
	ro := run(t, o, uniform(p, 1, 2, saved, static))
	for d := 0; d < p; d++ {
		want := int64(static + saved*(p-d))
		if ro.PeakMem[d] != want {
			t.Errorf("1F1B stage %d peak = %d, want %d", d, ro.PeakMem[d], want)
		}
	}
	g, _ := schedule.GPipe(p, n)
	rg := run(t, g, uniform(p, 1, 2, saved, static))
	for d := 0; d < p; d++ {
		want := int64(static + saved*n)
		if rg.PeakMem[d] != want {
			t.Errorf("GPipe stage %d peak = %d, want %d", d, rg.PeakMem[d], want)
		}
	}
}

// TestPeakMemoryReleasesFirstAtTies: where a device's forwards and
// backwards end at one instant, as on a zero-cost last stage under GPipe,
// the releases land before the acquisitions, though the device ran the
// forwards first.
func TestPeakMemoryReleasesFirstAtTies(t *testing.T) {
	const n = 4
	g, _ := schedule.GPipe(2, n)
	costs := []StageCost{{Fwd: 1, Bwd: 1, SavedPerMicro: 10}, {SavedPerMicro: 10}}
	r := run(t, g, costs)
	if want := []int64{10 * n, 10 * (n - 1)}; !slices.Equal(r.PeakMem, want) {
		t.Errorf("peaks %v, want %v", r.PeakMem, want)
	}
}

func TestBusyPlusBubbleEqualsMakespan(t *testing.T) {
	const p, n = 4, 8
	s, _ := schedule.OneFOneB(p, n)
	r := run(t, s, uniform(p, 1.5, 2.5, 1, 1))
	for d := 0; d < p; d++ {
		if math.Abs(r.Busy[d]+r.Bubble[d]-r.IterTime) > 1e-9 {
			t.Errorf("device %d: busy %g + bubble %g != iter %g", d, r.Busy[d], r.Bubble[d], r.IterTime)
		}
		if want := float64(n) * 4; math.Abs(r.Busy[d]-want) > 1e-9 {
			t.Errorf("device %d busy = %g, want %g", d, r.Busy[d], want)
		}
	}
}

func TestCommDelaysIncreaseMakespan(t *testing.T) {
	const p, n = 4, 8
	s, _ := schedule.OneFOneB(p, n)
	costs := uniform(p, 1, 2, 0, 0)
	base := run(t, s, costs)
	for i := range costs {
		costs[i].CommFwd = 0.25
		costs[i].CommBwd = 0.25
	}
	withComm := run(t, s, costs)
	if withComm.IterTime <= base.IterTime {
		t.Errorf("comm delays did not increase makespan: %g vs %g", withComm.IterTime, base.IterTime)
	}
}

func TestTimelineIsConsistent(t *testing.T) {
	const p, n = 3, 6
	s, _ := schedule.OneFOneB(p, n)
	r, err := Run(Input{Sched: s, Stages: uniform(p, 1, 2, 0, 0), CaptureTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != p*2*n {
		t.Fatalf("timeline has %d events, want %d", len(r.Timeline), p*2*n)
	}
	// Per-device events must not overlap.
	lastEnd := map[int]float64{}
	for _, ev := range r.Timeline {
		if ev.Start < lastEnd[ev.Device]-1e-9 {
			t.Fatalf("device %d events overlap at %g", ev.Device, ev.Start)
		}
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.End > lastEnd[ev.Device] {
			lastEnd[ev.Device] = ev.End
		}
	}
}

// TestTimelineOrdersZeroCostTies pins the timeline's order where ops of a
// zero-cost stage start together on one device: by start, then device, and
// one device's ops that start together in its schedule order, whatever
// order the simulator committed them in.
func TestTimelineOrdersZeroCostTies(t *testing.T) {
	costs := []StageCost{{}, {Fwd: 1, Bwd: 2}}
	s, _ := schedule.OneFOneB(2, 2)
	r, err := Run(Input{Sched: s, Stages: costs, CaptureTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range r.Timeline {
		got = append(got, fmt.Sprintf("%g d%d %s", ev.Start, ev.Device, ev.Op))
	}
	want := []string{
		"0 d0 F[0]@0", "0 d0 F[1]@0", "0 d1 F[0]@1", "1 d1 B[0]@1",
		"3 d0 B[0]@0", "3 d1 F[1]@1", "4 d1 B[1]@1", "6 d0 B[1]@0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("timeline\n%v\nwant\n%v", got, want)
	}

	// Long runs of ties: each device's events keep its schedule order.
	const p, n = 2, 16
	s, _ = schedule.OneFOneB(p, n)
	r, err = Run(Input{Sched: s, Stages: costs, CaptureTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, p)
	for i, ev := range r.Timeline {
		if i > 0 {
			prev := r.Timeline[i-1]
			if ev.Start < prev.Start || ev.Start == prev.Start && ev.Device < prev.Device {
				t.Fatalf("event %d (%g on %d) sorts before event %d (%g on %d)", i, ev.Start, ev.Device, i-1, prev.Start, prev.Device)
			}
		}
		if op := s.Ops[ev.Device][next[ev.Device]]; op.String() != ev.Op.String() {
			t.Fatalf("event %d on device %d is %s, want its next op %s", i, ev.Device, ev.Op, op)
		}
		next[ev.Device]++
	}
}

func TestDependenciesRespected(t *testing.T) {
	const p, n = 4, 6
	s, _ := schedule.OneFOneB(p, n)
	costs := uniform(p, 1, 2, 0, 0)
	for i := range costs {
		costs[i].CommFwd = 0.5
		costs[i].CommBwd = 0.5
	}
	r, err := Run(Input{Sched: s, Stages: costs, CaptureTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		kind  schedule.Kind
		stage int
		micro int
	}
	end := map[key]float64{}
	start := map[key]float64{}
	for _, ev := range r.Timeline {
		for _, m := range ev.Op.Micros {
			end[key{ev.Op.Kind, ev.Op.Stage, m}] = ev.End
			start[key{ev.Op.Kind, ev.Op.Stage, m}] = ev.Start
		}
	}
	for m := 0; m < n; m++ {
		for st := 1; st < p; st++ {
			if start[key{schedule.Forward, st, m}] < end[key{schedule.Forward, st - 1, m}]+0.5-1e-9 {
				t.Errorf("F(%d,%d) starts before upstream forward + comm", m, st)
			}
		}
		for st := 0; st < p-1; st++ {
			if start[key{schedule.Backward, st, m}] < end[key{schedule.Backward, st + 1, m}]+0.5-1e-9 {
				t.Errorf("B(%d,%d) starts before downstream backward + comm", m, st)
			}
		}
		for st := 0; st < p; st++ {
			if start[key{schedule.Backward, st, m}] < end[key{schedule.Forward, st, m}]-1e-9 {
				t.Errorf("B(%d,%d) starts before its own forward", m, st)
			}
		}
	}
}

func TestChimeraStaticAccounting(t *testing.T) {
	const p, n = 4, 8
	s, _ := schedule.Chimera(p, n)
	costs := uniform(p, 1, 2, 0, 0)
	for i := range costs {
		costs[i].Static = 100
		costs[i].StaticSharded = 40
		costs[i].StaticOverhead = 10
	}
	r := run(t, s, costs)
	// Each device hosts two stages: params+grads etc. replicated, the
	// sharded optimizer halved per replica, the overhead counted once.
	want := int64(2*100 - 2*20 - 10)
	for d := 0; d < p; d++ {
		if r.PeakMem[d] != want {
			t.Errorf("device %d static = %d, want %d", d, r.PeakMem[d], want)
		}
	}
}

func TestChimeraDDoublesActivationPinning(t *testing.T) {
	const p, n = 4, 16
	cd, _ := schedule.ChimeraD(p, n)
	c, _ := schedule.Chimera(p, n)
	costsD := uniform(p, 1, 2, 10, 0)
	rd := run(t, cd, costsD)
	rc := run(t, c, costsD)
	if rd.PeakMem[0] <= rc.PeakMem[0] {
		t.Errorf("forward doubling should pin more activations: ChimeraD %d vs Chimera %d",
			rd.PeakMem[0], rc.PeakMem[0])
	}
}

func TestChimeraWorseThanOneFOneBWhenNLarge(t *testing.T) {
	// §7.2: when micro-batches exceed the stage count, Chimera introduces
	// inter-unit bubbles and loses to 1F1B.
	const p = 4
	costs := uniform(p, 1, 2, 0, 0)
	for _, n := range []int{16, 32} {
		c, _ := schedule.Chimera(p, n)
		o, _ := schedule.OneFOneB(p, n)
		rc := run(t, c, costs)
		ro := run(t, o, costs)
		if rc.IterTime <= ro.IterTime {
			t.Errorf("n=%d: Chimera %g should be slower than 1F1B %g", n, rc.IterTime, ro.IterTime)
		}
	}
	// And at n=p it wins (the Chimera paper's setting).
	c, _ := schedule.Chimera(p, p)
	o, _ := schedule.OneFOneB(p, p)
	if rc, ro := run(t, c, costs), run(t, o, costs); rc.IterTime >= ro.IterTime {
		t.Errorf("n=p: Chimera %g should beat 1F1B %g", rc.IterTime, ro.IterTime)
	}
}

// TestInterleavedRunsInOrder: Megatron's fixed per-device order runs to
// the end on every shape it is built for here, with and without
// communication, and each device's busy time is all its ops' work.
func TestInterleavedRunsInOrder(t *testing.T) {
	for _, tc := range []struct{ p, n, v int }{
		{2, 4, 2}, {2, 8, 2}, {3, 9, 2}, {4, 4, 3}, {4, 16, 2}, {4, 16, 4}, {8, 32, 2}, {8, 16, 4},
	} {
		s, err := schedule.Interleaved(tc.p, tc.n, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		costs := uniform(tc.p*tc.v, 1, 2, 1, 1)
		for _, comm := range []float64{0, 0.25} {
			for i := range costs {
				costs[i].CommFwd, costs[i].CommBwd = comm, comm
			}
			r, err := Run(Input{Sched: s, Stages: costs})
			if err != nil {
				t.Fatalf("Interleaved(%d,%d,%d) comm %g: %v", tc.p, tc.n, tc.v, comm, err)
			}
			for d, busy := range r.Busy {
				if want := float64(tc.n*tc.v) * 3; busy != want {
					t.Errorf("Interleaved(%d,%d,%d) device %d busy %g, want %g", tc.p, tc.n, tc.v, d, busy, want)
				}
			}
		}
	}
}

// TestNonFiniteCostIsAnError: a NaN or infinite stage cost is named, not
// simulated (a NaN end would read as an op not yet run).
func TestNonFiniteCostIsAnError(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			costs := uniform(2, 1, 2, 0, 0)
			fields := []*float64{&costs[1].Fwd, &costs[1].Bwd, &costs[1].CommFwd, &costs[1].CommBwd}
			*fields[field] = bad
			_, err := Run(Input{Sched: s, Stages: costs})
			if want := "sim: stage 1 has a non-finite cost"; err == nil || err.Error() != want {
				t.Errorf("cost field %d = %g: error %v, want %q", field, bad, err, want)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := Run(Input{}); err == nil {
		t.Error("nil schedule accepted")
	}
	s, _ := schedule.OneFOneB(2, 2)
	if _, err := Run(Input{Sched: s, Stages: uniform(3, 1, 1, 0, 0)}); err == nil {
		t.Error("stage-count mismatch accepted")
	}
	// A corrupted schedule fails validation.
	bad, _ := schedule.OneFOneB(2, 2)
	bad.Ops[0] = bad.Ops[0][:1]
	if _, err := Run(Input{Sched: bad, Stages: uniform(2, 1, 1, 0, 0)}); err == nil {
		t.Error("corrupted schedule accepted")
	}
}

// TestRunRejectsOpsOutsideTheShape: an op whose micro-batch lies past the
// schedule's n is a validation error, not an index the simulator panics on.
func TestRunRejectsOpsOutsideTheShape(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 2)
	s.Ops[0] = append(s.Ops[0],
		schedule.Op{Kind: schedule.Forward, Micros: []int{5}, Stage: 0},
		schedule.Op{Kind: schedule.Backward, Micros: []int{5}, Stage: 0})
	if _, err := Run(Input{Sched: s, Stages: uniform(2, 1, 1, 0, 0)}); err == nil {
		t.Fatal("an op of micro 5 in a 2-micro schedule was simulated")
	}
}

func TestDeadlockDetection(t *testing.T) {
	f := func(m, stage int) schedule.Op {
		return schedule.Op{Kind: schedule.Forward, Micros: []int{m}, Stage: stage}
	}
	b := func(m, stage int) schedule.Op {
		return schedule.Op{Kind: schedule.Backward, Micros: []int{m}, Stage: stage}
	}
	for _, tc := range []struct {
		name string
		ops  [][]schedule.Op
		want string
	}{
		// Device 0 waits for a backward that device 1 only produces
		// after device 0 yields: nothing ever runs.
		{"at once", [][]schedule.Op{{b(0, 0), f(0, 0)}, {f(0, 1), b(0, 1)}},
			`sim: schedule "at once" deadlocked after 0 of 4 ops`},
		// Each device runs one forward, then device 0 waits for B0 at
		// stage 1, which device 1 runs only after F1 at stage 1, which
		// needs device 0's F1.
		{"part-way", [][]schedule.Op{{f(0, 0), b(0, 0), f(1, 0), b(1, 0)}, {f(0, 1), f(1, 1), b(1, 1), b(0, 1)}},
			`sim: schedule "part-way" deadlocked after 2 of 8 ops`},
	} {
		s := &schedule.Schedule{Name: tc.name, Stages: 2, Micros: len(tc.ops[0]) / 2, Ops: tc.ops}
		in := Input{Sched: s, Stages: uniform(2, 1, 1, 0, 0)}
		for _, run := range []struct {
			name string
			run  func(Input) (Result, error)
		}{{"Run", Run}, {"runReference", runReference}} {
			if _, err := run.run(in); err == nil || err.Error() != tc.want {
				t.Errorf("%s on %s: error %v, want %q", run.name, tc.name, err, tc.want)
			}
		}
	}
}

func TestMicroStepAndHelpers(t *testing.T) {
	s, _ := schedule.OneFOneB(3, 6)
	costs := []StageCost{{Fwd: 1, Bwd: 2}, {Fwd: 1.5, Bwd: 2.5}, {Fwd: 2, Bwd: 3}}
	r := run(t, s, costs)
	want := []float64{3, 4, 5}
	for i, ms := range r.MicroStep {
		if ms != want[i] {
			t.Errorf("micro-step[%d] = %g, want %g", i, ms, want[i])
		}
	}
	if r.MaxPeakMem() != 0 {
		t.Errorf("max peak = %d, want 0", r.MaxPeakMem())
	}
	if br := r.BubbleRatio(); br <= 0 || br >= 1 {
		t.Errorf("bubble ratio = %g", br)
	}
}

func TestIterTimeLowerBoundProperty(t *testing.T) {
	// Makespan ≥ per-device busy time and ≥ the critical path of micro 0.
	f := func(pp, nn, fb uint8) bool {
		p := int(pp%6) + 1
		n := p + int(nn%10)
		fwd := 0.5 + float64(fb%8)/4
		bwd := fwd * 2
		s, err := schedule.OneFOneB(p, n)
		if err != nil {
			return false
		}
		r, err := Run(Input{Sched: s, Stages: uniform(p, fwd, bwd, 0, 0)})
		if err != nil {
			return false
		}
		busy := float64(n) * (fwd + bwd)
		critical := float64(p) * (fwd + bwd)
		return r.IterTime >= busy-1e-9 && r.IterTime >= critical-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMemoryTimelineCapture(t *testing.T) {
	const p, n = 3, 5
	s, _ := schedule.OneFOneB(p, n)
	r, err := Run(Input{Sched: s, Stages: uniform(p, 1, 2, 10, 100), CaptureMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MemTimeline) != p {
		t.Fatalf("%d curves", len(r.MemTimeline))
	}
	for d, curve := range r.MemTimeline {
		if len(curve) != 2*n+1 {
			t.Fatalf("device %d: %d points, want %d", d, len(curve), 2*n+1)
		}
		if curve[0].Bytes != 100 {
			t.Errorf("device %d starts at %d, want static 100", d, curve[0].Bytes)
		}
		var peak int64
		for i, pt := range curve {
			if pt.Bytes < 100 {
				t.Errorf("device %d dips below static at point %d", d, i)
			}
			if i > 0 && pt.Time < curve[i-1].Time {
				t.Errorf("device %d curve not time-sorted", d)
			}
			if pt.Bytes > peak {
				peak = pt.Bytes
			}
		}
		if peak != r.PeakMem[d] {
			t.Errorf("device %d: curve peak %d != reported peak %d", d, peak, r.PeakMem[d])
		}
		// The iteration ends with all activations released.
		if curve[len(curve)-1].Bytes != 100 {
			t.Errorf("device %d ends at %d, want static 100", d, curve[len(curve)-1].Bytes)
		}
	}
	// Capture off: no curves.
	r2, _ := Run(Input{Sched: s, Stages: uniform(p, 1, 2, 10, 100)})
	if r2.MemTimeline != nil {
		t.Error("memory timeline captured without the flag")
	}
}
