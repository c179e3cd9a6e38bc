package core

import (
	"context"
	"fmt"
	"math"

	"adapipe/internal/partition"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// SetStageScale installs per-stage compute-cost multipliers: every
// subsequent cost evaluation (and hence Plan call) sees stage s's forward
// and backward times multiplied by scale[s]. This is how an observed
// degradation — a straggling device reported by the obs detector — is folded
// into the §5 cost model so the partition DP can shift layers away from the
// slow stage. Memory costs are unchanged (a slow device is not a smaller
// one). nil restores nominal costs; the nominal table entries are never
// invalidated.
func (pl *Planner) SetStageScale(scale []float64) error {
	if scale == nil {
		pl.mu.Lock()
		pl.scale = nil
		pl.mu.Unlock()
		return nil
	}
	if len(scale) != pl.strat.PP {
		return fmt.Errorf("core: stage scale has %d entries, strategy has %d stages", len(scale), pl.strat.PP)
	}
	for s, v := range scale {
		if !(v > 0) || math.IsInf(v, 1) { // rejects zero, negatives, NaN and +Inf
			return fmt.Errorf("core: stage %d scale %g, want finite and > 0", s, v)
		}
	}
	pl.mu.Lock()
	pl.scale = append([]float64(nil), scale...)
	pl.mu.Unlock()
	return nil
}

// Replan is the outcome of a straggler-driven replanning attempt: the old
// plan repriced under the degraded cost model, the re-searched plan, both
// plans' simulated 1F1B iterations, and whether the new plan won.
type Replan struct {
	// Old is the incumbent plan repriced under the scaled cost model (same
	// bounds, degraded stage times) — the honest baseline the new plan
	// must beat.
	Old *Plan
	// New is the plan the search produced under the scaled cost model.
	New *Plan
	// OldSim and NewSim are the discrete-event simulations of both plans.
	OldSim, NewSim sim.Result
	// Adopted reports whether New's simulated iteration is strictly faster
	// than Old's (beyond the float-noise tolerance). The caller should
	// rebind the live pipeline to New only when set.
	Adopted bool
}

// Speedup returns the simulated old/new iteration-time ratio.
func (r *Replan) Speedup() float64 {
	if r.NewSim.IterTime <= 0 {
		return 1
	}
	return r.OldSim.IterTime / r.NewSim.IterTime
}

// ReplanWithScale reacts to an observed per-stage slowdown: it installs the
// scale into the cost model, reprices the incumbent plan's bounds under it,
// re-runs the configured partition search, and simulates both plans under
// the 1F1B schedule. The new plan is marked Adopted only if its simulated
// iteration strictly beats the repriced incumbent's — replanning must never
// make things worse, so validation happens in the simulator before any
// live pipeline is rebuilt. The scale stays installed afterwards (the
// degradation is real until SetStageScale(nil) says otherwise).
//
// On a warm planner — one whose previous search installed the partition-DP
// memo — the re-search runs incrementally: only the DP levels at or below
// the highest stage whose scale changed are recomputed, against the same
// cost table. The produced plan is byte-identical to a cold full
// search under the same scale (TestDifferential's replan leg); only the work
// differs. Stats.ReplanIncremental counts the replans that took this path.
func (pl *Planner) ReplanWithScale(old *Plan, scale []float64) (*Replan, error) {
	return pl.ReplanWithScaleContext(context.Background(), old, scale)
}

// ReplanWithScaleContext is ReplanWithScale with ctx threaded into the
// re-search, so a serving layer's deadlines, cancellation and tracer reach
// the warm-started partition DP exactly as they reach a cold PlanContext.
func (pl *Planner) ReplanWithScaleContext(ctx context.Context, old *Plan, scale []float64) (*Replan, error) {
	if old == nil {
		return nil, fmt.Errorf("core: replan needs the incumbent plan")
	}
	if len(old.Stages) != pl.strat.PP {
		return nil, fmt.Errorf("core: incumbent plan has %d stages, strategy has %d", len(old.Stages), pl.strat.PP)
	}
	if err := pl.SetStageScale(scale); err != nil {
		return nil, err
	}

	bounds := make([]int, pl.strat.PP+1)
	for s, sp := range old.Stages {
		bounds[s] = sp.LayerLo
	}
	bounds[pl.strat.PP] = old.Stages[pl.strat.PP-1].LayerHi
	repriced, err := pl.planForBounds(bounds)
	if err != nil {
		return nil, fmt.Errorf("core: repricing incumbent plan: %w", err)
	}
	next, err := pl.PlanContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: replanning under scaled costs: %w", err)
	}

	r := &Replan{Old: repriced, New: next}
	if r.OldSim, err = pl.simulate(repriced); err != nil {
		return nil, err
	}
	if r.NewSim, err = pl.simulate(next); err != nil {
		return nil, err
	}
	r.Adopted = r.NewSim.IterTime < r.OldSim.IterTime &&
		!partition.AlmostEq(r.NewSim.IterTime, r.OldSim.IterTime)
	return r, nil
}

// planForBounds prices an explicit partitioning under the current cost model
// (including any installed stage scale) and assembles a Plan for it.
func (pl *Planner) planForBounds(bounds []int) (*Plan, error) {
	L := len(pl.layers)
	p := pl.strat.PP
	if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != L {
		return nil, fmt.Errorf("core: bounds %v do not partition %d layers into %d stages", bounds, L, p)
	}
	cost := func(s, i, j int) (float64, float64, bool) {
		c := pl.stageCostFor(s, i, j)
		return c.Fwd, c.Bwd, c.OK
	}
	total, w, e, m, ok := partition.Evaluate(bounds, pl.n, cost)
	if !ok {
		return nil, fmt.Errorf("core: bounds %v exceed the %s memory capacity (OOM)", bounds, pl.cluster.Device.Name)
	}
	pl.mu.Lock()
	scale := pl.scale
	pl.mu.Unlock()
	plan := pl.assemble(bounds, scale, total, w, e, m)
	pl.mu.Lock()
	// The assembly read one published entry per stage.
	pl.Stats.CostEvaluations += p
	pl.Stats.CacheHits += p
	plan.Search = pl.Stats
	pl.mu.Unlock()
	return plan, nil
}

// StageCosts converts the plan into the simulator's per-stage costs.
func (p *Plan) StageCosts() []sim.StageCost {
	costs := make([]sim.StageCost, len(p.Stages))
	for i, s := range p.Stages {
		costs[i] = sim.StageCost{
			Fwd:            s.Fwd,
			Bwd:            s.Bwd,
			CommFwd:        p.CommFwd,
			CommBwd:        p.CommBwd,
			SavedPerMicro:  s.Mem.SavedPerMicro,
			Static:         s.Mem.Static(),
			StaticSharded:  s.Mem.Optimizer,
			StaticOverhead: s.Mem.Overhead,
		}
	}
	return costs
}

// simulate runs a plan's 1F1B schedule through the discrete-event simulator.
func (pl *Planner) simulate(plan *Plan) (sim.Result, error) {
	sched, err := schedule.OneFOneB(pl.strat.PP, plan.MicroBatches)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Input{Sched: sched, Stages: plan.StageCosts()})
}
