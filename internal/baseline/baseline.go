// Package baseline defines the evaluation methods compared in §7 — DAPPLE,
// Chimera and ChimeraD with full/no recomputation, Even Partitioning, and
// AdaPipe itself — and evaluates each one end to end: plan, schedule,
// simulate, and check memory feasibility.
package baseline

import (
	"context"
	"fmt"
	"math"

	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/obs"
	"adapipe/internal/parallel"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// ScheduleKind selects the pipeline mechanism of a method.
type ScheduleKind int

const (
	// Sched1F1B is the DAPPLE 1F1B schedule.
	Sched1F1B ScheduleKind = iota
	// SchedChimera is the bidirectional Chimera schedule.
	SchedChimera
	// SchedChimeraD is Chimera with forward doubling.
	SchedChimeraD
	// SchedGPipe is the GPipe schedule (background comparison).
	SchedGPipe
)

// scheduleTable is the one place a pipeline mechanism is defined: its wire
// label (the "schedule" field of a /v1/simulate response) and its builder.
// A new schedule family is one more row.
var scheduleTable = [...]struct {
	label string
	build func(p, n int) (*schedule.Schedule, error)
}{
	Sched1F1B:     {"1f1b", schedule.OneFOneB},
	SchedChimera:  {"chimera", schedule.Chimera},
	SchedChimeraD: {"chimerad", schedule.ChimeraD},
	SchedGPipe:    {"gpipe", schedule.GPipe},
}

func (k ScheduleKind) known() bool { return k >= 0 && int(k) < len(scheduleTable) }

// Build returns the kind's schedule for p stages and n micro-batches.
func (k ScheduleKind) Build(p, n int) (*schedule.Schedule, error) {
	if !k.known() {
		return nil, fmt.Errorf("baseline: unknown schedule kind %d", int(k))
	}
	return scheduleTable[k].build(p, n)
}

// String returns the kind's wire label, "unknown" for a kind outside the table.
func (k ScheduleKind) String() string {
	if !k.known() {
		return "unknown"
	}
	return scheduleTable[k].label
}

// Method is one end-to-end configuration of the evaluation.
type Method struct {
	// Name is the label used in the figures, e.g. "DAPPLE-Full".
	Name string
	// Recompute is the recomputation policy.
	Recompute core.RecomputeMode
	// Partition is the stage-partitioning policy.
	Partition core.PartitionMode
	// Schedule is the pipeline mechanism.
	Schedule ScheduleKind
}

// Adaptive reports whether the method searches recomputation adaptively (and
// therefore enforces the memory constraint at plan time).
func (m Method) Adaptive() bool { return m.Recompute == core.RecomputeAdaptive }

// Methods returns the eight methods of Figures 5, 6, 8 and 9, in the paper's
// legend order.
func Methods() []Method {
	return []Method{
		{Name: "DAPPLE-Full", Recompute: core.RecomputeFull, Partition: core.PartitionEven, Schedule: Sched1F1B},
		{Name: "DAPPLE-Non", Recompute: core.RecomputeNone, Partition: core.PartitionEven, Schedule: Sched1F1B},
		{Name: "Chimera-Full", Recompute: core.RecomputeFull, Partition: core.PartitionEven, Schedule: SchedChimera},
		{Name: "Chimera-Non", Recompute: core.RecomputeNone, Partition: core.PartitionEven, Schedule: SchedChimera},
		{Name: "ChimeraD-Full", Recompute: core.RecomputeFull, Partition: core.PartitionEven, Schedule: SchedChimeraD},
		{Name: "ChimeraD-Non", Recompute: core.RecomputeNone, Partition: core.PartitionEven, Schedule: SchedChimeraD},
		{Name: "Even Partitioning", Recompute: core.RecomputeAdaptive, Partition: core.PartitionEven, Schedule: Sched1F1B},
		{Name: "AdaPipe", Recompute: core.RecomputeAdaptive, Partition: core.PartitionAdaptive, Schedule: Sched1F1B},
	}
}

// ClusterBMethods returns the reduced method set measured on cluster B
// (Figure 7), where each MindSpore compile takes about an hour.
func ClusterBMethods() []Method {
	all := Methods()
	return []Method{all[0], all[1], all[6], all[7]}
}

// MethodByName returns the method with the given figure label.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods() {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("baseline: unknown method %q", name)
}

// Outcome is one evaluated (method, strategy) point.
type Outcome struct {
	// Method is the evaluated method.
	Method Method
	// Strategy is the 3D parallelism configuration.
	Strategy parallel.Strategy
	// Plan is the produced plan (nil when planning itself failed).
	Plan *core.Plan
	// Sim is the simulated iteration (zero when unavailable).
	Sim sim.Result
	// IterTime is the simulated iteration time in seconds.
	IterTime float64
	// OOM reports that the configuration exceeds device memory.
	OOM bool
	// Err holds a non-memory failure (e.g. schedule divisibility).
	Err error
}

// Feasible reports whether the outcome completed within memory.
func (o Outcome) Feasible() bool { return !o.OOM && o.Err == nil }

// Evaluate plans, schedules and simulates one method under one strategy.
// Non-adaptive methods are simulated even when they exceed device memory so
// their peak consumption can be reported (Figure 8); OOM is then flagged from
// the simulated peak.
func Evaluate(m Method, cfg model.Config, cluster hardware.Cluster, strat parallel.Strategy, train parallel.Config, opts core.Options) Outcome {
	return EvaluateContext(context.Background(), m, cfg, cluster, strat, train, opts)
}

// EvaluateContext is Evaluate with cooperative cancellation: the context is
// threaded into the planner's search (core.PlanContext), and a cancelled
// evaluation reports ctx.Err() in Outcome.Err rather than a misdiagnosed OOM.
func EvaluateContext(ctx context.Context, m Method, cfg model.Config, cluster hardware.Cluster, strat parallel.Strategy, train parallel.Config, opts core.Options) Outcome {
	out := Outcome{Method: m, Strategy: strat}
	opts.Recompute = m.Recompute
	opts.Partition = m.Partition
	// Plan OOM baselines anyway so the simulator can report their peaks
	// (Figure 8); feasibility is decided from the simulated peak below.
	opts.IgnoreMemoryLimit = !m.Adaptive()

	planner, err := core.NewPlanner(cfg, cluster, strat, train, opts)
	if err != nil {
		out.Err = err
		return out
	}
	plan, err := planner.PlanContext(ctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			out.Err = cerr
			return out
		}
		if m.Adaptive() {
			out.OOM = true
			return out
		}
		out.Err = err
		return out
	}
	out.Plan = plan

	sched, err := m.Schedule.Build(strat.PP, plan.MicroBatches)
	if err != nil {
		out.Err = err
		return out
	}
	costs := StageCosts(plan)
	// The discrete-event replay gets its own span next to the planner's
	// search.* spans (an error return leaves it unrecorded).
	sp := obs.TracerFrom(ctx).Start("baseline.simulate", obs.CatSearch)
	res, err := sim.Run(sim.Input{Sched: sched, Stages: costs})
	if err != nil {
		out.Err = err
		return out
	}
	sp.End()
	out.Sim = res
	out.IterTime = res.IterTime
	if res.MaxPeakMem() > cluster.Device.MemCapacity {
		out.OOM = true
	}
	return out
}

// StageCosts converts a plan into simulator stage costs.
func StageCosts(plan *core.Plan) []sim.StageCost { return plan.StageCosts() }

// Best evaluates a method over every 3D strategy for the given device count
// (the paper's cluster-A methodology, §7.1) and returns the fastest feasible
// outcome plus all evaluated points. When no strategy is feasible the
// returned best has OOM set.
func Best(m Method, cfg model.Config, cluster hardware.Cluster, devices int, train parallel.Config, opts core.Options) (Outcome, []Outcome) {
	constraint := parallel.DefaultConstraint()
	constraint.LayerCount = len(cfg.LayerSequence())
	var all []Outcome
	best := Outcome{Method: m, OOM: true, IterTime: math.Inf(1)}
	for _, strat := range parallel.Enumerate(devices, constraint) {
		if n, err := train.MicroBatches(strat); err != nil || n < strat.PP {
			continue
		}
		o := Evaluate(m, cfg, cluster, strat, train, opts)
		all = append(all, o)
		if o.Feasible() && o.IterTime < best.IterTime {
			best = o
		}
	}
	return best, all
}
