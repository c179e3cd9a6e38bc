package experiments

import (
	"fmt"
	"strings"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
	"adapipe/internal/trace"
)

// Figure2Result is one schedule of Figure 2: GPipe vs 1F1B with three stages
// and six micro-batches.
type Figure2Result struct {
	// Name is "GPipe" or "1F1B".
	Name string
	// IterTime is the simulated makespan (uniform F=1, B=2 units).
	IterTime float64
	// BubbleRatio is the idle fraction.
	BubbleRatio float64
	// PeakMicros is the per-stage maximum of simultaneously live
	// micro-batches.
	PeakMicros []int64
	// Gantt is the rendered timeline.
	Gantt string
}

// Figure2 regenerates the scheduling-mechanism comparison of §2.1: GPipe
// saves the intermediates of all n micro-batches while 1F1B caps stage s at
// p−s, with identical bubble counts.
func Figure2() ([]Figure2Result, error) {
	const p, n = 3, 6
	costs := make([]sim.StageCost, p)
	for i := range costs {
		costs[i] = sim.StageCost{Fwd: 1, Bwd: 2, SavedPerMicro: 1}
	}
	var out []Figure2Result
	for _, mk := range []func(int, int) (*schedule.Schedule, error){schedule.GPipe, schedule.OneFOneB} {
		s, err := mk(p, n)
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(sim.Input{Sched: s, Stages: costs, CaptureTimeline: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure2Result{
			Name:        s.Name,
			IterTime:    r.IterTime,
			BubbleRatio: r.BubbleRatio(),
			PeakMicros:  r.PeakMem,
			Gantt:       trace.Gantt(r, p, 72),
		})
	}
	return out, nil
}

// FormatFigure2 renders both schedules.
func FormatFigure2(res []Figure2Result) string {
	var b strings.Builder
	b.WriteString("Figure 2: Scheduling mechanisms (3 stages, 6 micro-batches, F=1, B=2)\n")
	for _, r := range res {
		fmt.Fprintf(&b, "-- %s: makespan %.0f, bubble ratio %.3f, live micro-batches per stage %v --\n",
			r.Name, r.IterTime, r.BubbleRatio, r.PeakMicros)
		b.WriteString(r.Gantt)
	}
	return b.String()
}

// ToyCluster builds a single-node cluster of small synthetic accelerators
// whose memory capacity is set by the caller, used by the overview and
// convergence experiments where the point is the mechanism, not the scale.
func ToyCluster(devices int, capacity int64) hardware.Cluster {
	return hardware.Cluster{
		Name: "toy",
		Device: hardware.Device{
			Name:                "toy-accelerator",
			PeakFLOPS:           10 * hardware.TFLOPS,
			MemBandwidth:        500 * hardware.GBps,
			MemCapacity:         capacity,
			GEMMEfficiency:      0.5,
			AttnEfficiency:      0.4,
			BandwidthEfficiency: 0.8,
		},
		DevicesPerNode:     devices,
		Nodes:              1,
		IntraNodeBandwidth: 50 * hardware.GBps,
		InterNodeBandwidth: 10 * hardware.GBps,
		LinkLatency:        2e-6,
	}
}

// ToyOptions returns planner options scaled for toy-size experiments: the
// datacenter-class framework overhead and conservative reserve would swamp a
// megabyte-scale model.
func ToyOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Memory.OverheadBytes = 16 << 20
	opts.MemoryReserve = 0.05
	opts.Quantum = 4096 // toy activations are kilobytes, not megabytes
	return opts
}

// ToyCapacity picks a device capacity that makes adaptive recomputation
// interesting: large enough that maximum recomputation fits everywhere,
// small enough that saving everything does not. frac is the fraction of the
// no-recomputation activation footprint that fits.
func ToyCapacity(cfg model.Config, strat parallel.Strategy, train parallel.Config, frac float64) (int64, error) {
	opts := ToyOptions()
	opts.Recompute = core.RecomputeNone
	opts.Partition = core.PartitionEven
	opts.IgnoreMemoryLimit = true
	probe, err := core.NewPlanner(cfg, ToyCluster(strat.Devices(), 1<<40), strat, train, opts)
	if err != nil {
		return 0, err
	}
	plan, err := probe.Plan()
	if err != nil {
		return 0, err
	}
	var capacity int64
	for _, st := range plan.Stages {
		c := st.Mem.Static() + int64(frac*float64(st.Mem.Activations()))
		if c > capacity {
			capacity = c
		}
	}
	// The adaptive search only sees capacity·(1−reserve); inflate so the
	// intended activation headroom survives the reserve.
	capacity = int64(float64(capacity) / (1 - ToyOptions().MemoryReserve) * 1.02)
	return capacity, nil
}

// Figure3Step is one configuration of the Figure 3 overview: original full
// recomputation, + adaptive recomputation, + adaptive partitioning.
type Figure3Step struct {
	// Name describes the configuration.
	Name string
	// IterTime is the simulated iteration time in seconds.
	IterTime float64
	// SavedUnits and Layers describe each stage's plan.
	SavedUnits []int
	// Layers is the per-stage layer count.
	Layers []int
	// Gantt is the rendered timeline.
	Gantt string
}

// Figure3 reproduces the overview walk-through of §3 on a toy transformer:
// adaptive recomputation shortens the warmup and ending phases, then
// adaptive partitioning rebalances the steady phase. The paper draws the
// minimal two-stage case; at layer granularity a two-stage toy is already
// optimally balanced, so this reproduction uses four stages, where the
// in-flight imbalance is strong enough that the partitioner moves layers.
func Figure3() ([]Figure3Step, error) {
	cfg := model.Tiny(20)
	strat := parallel.Strategy{TP: 1, PP: 4, DP: 1}
	train := parallel.Config{GlobalBatch: 12, MicroBatch: 1, SeqLen: 1024}
	capacity, err := ToyCapacity(cfg, strat, train, 0.5)
	if err != nil {
		return nil, err
	}
	cl := ToyCluster(4, capacity)
	steps := []struct {
		name string
		m    baseline.Method
	}{
		{"Original: full recomputation, even partitioning",
			baseline.Method{Name: "full", Recompute: core.RecomputeFull, Partition: core.PartitionEven, Schedule: baseline.Sched1F1B}},
		{"Opt. 1: adaptive recomputation",
			baseline.Method{Name: "even", Recompute: core.RecomputeAdaptive, Partition: core.PartitionEven, Schedule: baseline.Sched1F1B}},
		{"Opt. 2: + adaptive partitioning",
			baseline.Method{Name: "adapipe", Recompute: core.RecomputeAdaptive, Partition: core.PartitionAdaptive, Schedule: baseline.Sched1F1B}},
	}
	var out []Figure3Step
	for _, s := range steps {
		opts := ToyOptions()
		opts.Recompute = s.m.Recompute
		opts.Partition = s.m.Partition
		planner, err := core.NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			return nil, err
		}
		plan, err := planner.Plan()
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 3 %q: %w", s.name, err)
		}
		sched, err := schedule.OneFOneB(strat.PP, plan.MicroBatches)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Input{Sched: sched, Stages: baseline.StageCosts(plan), CaptureTimeline: true})
		if err != nil {
			return nil, err
		}
		step := Figure3Step{Name: s.name, IterTime: res.IterTime, Gantt: trace.Gantt(res, strat.PP, 72)}
		for _, st := range plan.Stages {
			step.SavedUnits = append(step.SavedUnits, st.Recompute.SavedUnits)
			step.Layers = append(step.Layers, st.Layers())
		}
		out = append(out, step)
	}
	return out, nil
}

// FormatFigure3 renders the overview steps.
func FormatFigure3(steps []Figure3Step) string {
	var b strings.Builder
	b.WriteString("Figure 3: AdaPipe overview on a four-stage toy transformer\n")
	for _, s := range steps {
		fmt.Fprintf(&b, "-- %s --\n", s.Name)
		fmt.Fprintf(&b, "   iteration %.4fs, saved units %v, layers %v\n", s.IterTime, s.SavedUnits, s.Layers)
		b.WriteString(s.Gantt)
	}
	return b.String()
}
