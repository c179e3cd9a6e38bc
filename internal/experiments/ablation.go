package experiments

import (
	"fmt"
	"strings"
	"time"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// AblationRow is one configuration of the design-choice ablation study.
type AblationRow struct {
	// Name describes the configuration.
	Name string
	// ModeledTotal is the planner's modeled iteration time in seconds
	// (zero when the configuration is OOM).
	ModeledTotal float64
	// SimulatedTotal is the discrete-event makespan in seconds.
	SimulatedTotal float64
	// SearchTime is the wall time of the search.
	SearchTime time.Duration
	// KnapsackRuns counts recomputation-DP solves during the search.
	KnapsackRuns int
	// OOM marks infeasible configurations.
	OOM bool
}

// Ablation evaluates the design choices DESIGN.md calls out, on the §7.4
// configuration (GPT-3, seq 16384, (8,8,1)):
//
//   - recomputation granularity: none / full / whole-layer (vPipe-style,
//     §2.2) / unit-level (AdaPipe §4);
//   - partitioning: even / Algorithm 1 / exact Pareto-frontier DP;
//   - search engineering: the §5.3 isomorphism cache and GCD reduction
//     toggled off (result must be identical; only the search time moves).
func Ablation() ([]AblationRow, error) {
	cfg, strat, train := fig8Config()
	cl := hardware.ClusterA()
	cases := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"no recomputation (even)", func(o *core.Options) { o.Recompute = core.RecomputeNone; o.Partition = core.PartitionEven }},
		{"full recomputation (even)", func(o *core.Options) { o.Recompute = core.RecomputeFull; o.Partition = core.PartitionEven }},
		{"layer-level recomputation (even)", func(o *core.Options) { o.Recompute = core.RecomputeLayerLevel; o.Partition = core.PartitionEven }},
		{"unit-level recomputation (even)", func(o *core.Options) { o.Recompute = core.RecomputeAdaptive; o.Partition = core.PartitionEven }},
		{"AdaPipe (Algorithm 1)", func(o *core.Options) { o.Partition = core.PartitionAdaptive }},
		{"AdaPipe (exact Pareto DP)", func(o *core.Options) { o.Partition = core.PartitionExact }},
		{"AdaPipe, isomorphism cache off", func(o *core.Options) { o.Partition = core.PartitionAdaptive; o.DisableIsomorphism = true }},
		{"AdaPipe, GCD reduction off", func(o *core.Options) { o.Partition = core.PartitionAdaptive; o.DisableGCD = true }},
	}
	var out []AblationRow
	for _, c := range cases {
		opts := core.DefaultOptions()
		c.mutate(&opts)
		row := AblationRow{Name: c.name}
		start := time.Now()
		planner, err := core.NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			return nil, err
		}
		plan, err := planner.Plan()
		row.SearchTime = time.Since(start)
		row.KnapsackRuns = planner.StatsSnapshot().KnapsackRuns
		if err != nil {
			row.OOM = true
			out = append(out, row)
			continue
		}
		row.ModeledTotal = plan.Total
		sched, err := schedule.OneFOneB(strat.PP, plan.MicroBatches)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Input{Sched: sched, Stages: baseline.StageCosts(plan)})
		if err != nil {
			return nil, err
		}
		row.SimulatedTotal = res.IterTime
		out = append(out, row)
	}
	return out, nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: design choices on GPT-3, seq 16384, (8,8,1)\n")
	fmt.Fprintf(&b, "  %-36s %12s %12s %12s %10s\n", "configuration", "modeled", "simulated", "search", "knapsacks")
	for _, r := range rows {
		if r.OOM {
			fmt.Fprintf(&b, "  %-36s %12s %12s %12s %10d\n", r.Name, "OOM", "-", r.SearchTime.Round(time.Millisecond), r.KnapsackRuns)
			continue
		}
		fmt.Fprintf(&b, "  %-36s %11.2fs %11.2fs %12s %10d\n",
			r.Name, r.ModeledTotal, r.SimulatedTotal, r.SearchTime.Round(time.Millisecond), r.KnapsackRuns)
	}
	return b.String()
}

// InterleavedRow is one point of the supplementary interleaved-1F1B study.
type InterleavedRow struct {
	// Chunks is the virtual-chunk count v per device.
	Chunks int
	// IterTime is the simulated makespan.
	IterTime float64
	// BubbleRatio is the idle fraction.
	BubbleRatio float64
}

// Interleaved reproduces the §2.1 background claim about Megatron's
// interleaved 1F1B: more virtual chunks per device shrink the bubble ratio
// (at the cost of proportionally more pipeline communication, which is also
// charged here). Run on a uniform 4-stage pipeline with 16 micro-batches.
func Interleaved() ([]InterleavedRow, error) {
	const p, n = 4, 16
	var out []InterleavedRow
	for _, v := range []int{1, 2, 4} {
		sched, err := schedule.Interleaved(p, n, v)
		if err != nil {
			return nil, err
		}
		stages := make([]sim.StageCost, p*v)
		for i := range stages {
			stages[i] = sim.StageCost{
				Fwd:     1.0 / float64(v),
				Bwd:     2.0 / float64(v),
				CommFwd: 0.02,
				CommBwd: 0.02,
			}
		}
		res, err := sim.Run(sim.Input{Sched: sched, Stages: stages})
		if err != nil {
			return nil, err
		}
		out = append(out, InterleavedRow{Chunks: v, IterTime: res.IterTime, BubbleRatio: res.BubbleRatio()})
	}
	return out, nil
}

// FormatInterleaved renders the interleaved study.
func FormatInterleaved(rows []InterleavedRow) string {
	var b strings.Builder
	b.WriteString("Interleaved 1F1B (supplementary, §2.1): 4 stages, 16 micro-batches\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  v=%d chunks/device: makespan %.3f, bubble ratio %.3f\n", r.Chunks, r.IterTime, r.BubbleRatio)
	}
	return b.String()
}
