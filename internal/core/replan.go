package core

import (
	"context"
	"fmt"
	"math"

	"adapipe/internal/partition"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// checkScale validates a stage-scale vector and returns the planner's own
// copy of it (nil for nil).
func (pl *Planner) checkScale(scale []float64) ([]float64, error) {
	if scale == nil {
		return nil, nil
	}
	if len(scale) != pl.strat.PP {
		return nil, fmt.Errorf("core: stage scale has %d entries, strategy has %d stages", len(scale), pl.strat.PP)
	}
	for s, v := range scale {
		if !(v > 0) || math.IsInf(v, 1) { // rejects zero, negatives, NaN and +Inf
			return nil, fmt.Errorf("core: stage %d scale %g, want finite and > 0", s, v)
		}
	}
	return append([]float64(nil), scale...), nil
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

// ReplanWithScale reacts to an observed per-stage slowdown: stage s's
// forward and backward times are multiplied by scale[s] (memory is
// unchanged: a slow device is not a smaller one). It reprices the incumbent
// plan's bounds under the scale, re-runs the configured partition search
// under it, and simulates both plans under the 1F1B schedule. The new plan
// is marked Adopted only if its simulated iteration strictly beats the
// repriced incumbent's — replanning must never make things worse, so
// validation happens in the simulator before any live pipeline is rebuilt.
// The scale applies to this call only: the cost table keeps nominal costs,
// and a later Plan or CostFor sees them.
//
// On a warm planner — one whose previous search kept the partition-DP
// memo — the re-search runs incrementally: only the DP levels at or below
// the highest stage whose scale changed are recomputed, against the same
// cost table. The produced plan is byte-identical to a cold full
// search under the same scale (TestDifferential's replan leg); only the work
// differs. SearchStats.ReplanIncremental counts the replans that took this
// path.
func (pl *Planner) ReplanWithScale(old *Plan, scale []float64) (*Replan, error) {
	return pl.ReplanWithScaleContext(context.Background(), old, scale)
}

// ReplanWithScaleContext is ReplanWithScale with ctx threaded into the
// re-search, so a serving layer's deadlines, cancellation and tracer reach
// the warm-started partition DP exactly as they reach a cold PlanContext.
func (pl *Planner) ReplanWithScaleContext(ctx context.Context, old *Plan, scale []float64) (*Replan, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if old == nil {
		return nil, fmt.Errorf("core: replan needs the incumbent plan")
	}
	if len(old.Stages) != pl.strat.PP {
		return nil, fmt.Errorf("core: incumbent plan has %d stages, strategy has %d", len(old.Stages), pl.strat.PP)
	}
	scale, err := pl.checkScale(scale)
	if err != nil {
		return nil, err
	}
	repriced, err := pl.sv.planForBounds(old.Bounds(), scale)
	if err != nil {
		return nil, fmt.Errorf("core: repricing incumbent plan: %w", err)
	}
	next, err := pl.sv.search(ctx, scale)
	if err != nil {
		return nil, fmt.Errorf("core: replanning under scaled costs: %w", err)
	}

	// Both plans split the same n micro-batches over the same p stages,
	// so one 1F1B schedule serves both simulations.
	sched, err := schedule.OneFOneB(pl.strat.PP, pl.n)
	if err != nil {
		return nil, err
	}
	r := &Replan{Old: repriced, New: next}
	if r.OldSim, err = sim.Run(sim.Input{Sched: sched, Stages: repriced.StageCosts()}); err != nil {
		return nil, err
	}
	if r.NewSim, err = sim.Run(sim.Input{Sched: sched, Stages: next.StageCosts()}); err != nil {
		return nil, err
	}
	r.Adopted = r.NewSim.IterTime < r.OldSim.IterTime &&
		!partition.AlmostEq(r.NewSim.IterTime, r.OldSim.IterTime)
	return r, nil
}

// planForBounds prices an explicit partitioning under scale and
// assembles a Plan for it. The bounds must split the layers into p non-empty
// stages, in order.
func (sv *stageSolver) planForBounds(bounds []int, scale []float64) (*Plan, error) {
	pl, t := sv.pl, sv.pl.table
	L := len(pl.layers)
	p := pl.strat.PP
	ok := len(bounds) == p+1 && bounds[0] == 0 && bounds[p] == L
	for s := 0; ok && s < p; s++ {
		ok = bounds[s] < bounds[s+1]
	}
	if !ok {
		return nil, fmt.Errorf("core: bounds %v do not partition %d layers into %d non-empty stages", bounds, L, p)
	}
	before := sv.st.CostEvaluations
	rows := sv.rows(nil, scale, nil)
	total, w, e, m, ok := partition.Evaluate(bounds, pl.n, &rows)
	// Evaluate read the stages in order, up to the first infeasible one; the
	// lookups that missed counted themselves, the rest were hits.
	read := p
	for s := 0; !ok && s < p; s++ {
		if t.hot[t.index(s, bounds[s], bounds[s+1]-1)].State != partition.Feasible {
			read = s + 1
			break
		}
	}
	hits := read - (sv.st.CostEvaluations - before)
	sv.st.CostEvaluations += hits
	sv.st.CacheHits += hits
	if !ok {
		return nil, fmt.Errorf("core: bounds %v exceed the %s memory capacity (OOM)", bounds, pl.cluster.Device.Name)
	}
	plan := pl.assemble(bounds, scale, total, w, e, m)
	// The assembly read one published entry per stage.
	sv.st.CostEvaluations += p
	sv.st.CacheHits += p
	plan.Search = *sv.st
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
