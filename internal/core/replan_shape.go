package core

import (
	"fmt"

	"adapipe/internal/hardware"
	"adapipe/internal/parallel"
	"adapipe/internal/partition"
	"adapipe/internal/sim"
)

// ShapeReplan is the outcome of a shape replan: the planner built
// for the winning pipeline depth on the resized cluster, its plan, and the
// plan's simulated 1F1B iteration. Unlike ReplanWithScale — which keeps the
// cluster and reprices the incumbent bounds — a shape replan answers a
// different question: the cluster itself changed (a node died, or a spare
// arrived), so the pipeline depth is back on the table.
type ShapeReplan struct {
	// Planner is the planner for the adopted strategy on the new cluster;
	// the caller keeps it for subsequent replans on that shape.
	Planner *Planner
	// Plan is the winning plan.
	Plan *Plan
	// Sim is the discrete-event simulation of Plan's 1F1B schedule.
	Sim sim.Result
	// Strategy is the adopted 3D parallelism configuration (TP and DP are
	// inherited from the old planner; only PP was searched).
	Strategy parallel.Strategy
	// ReusedCostEntries counts cost-table entries seeded from the old
	// planner into the winning candidate. Non-zero only when the winner
	// kept the old pipeline depth: the §4/§5 stage costs depend on (PP, s)
	// through the in-flight micro-batch count, so cached entries are valid
	// across cluster shapes exactly when PP is unchanged.
	ReusedCostEntries int
}

// ReplanWithShape replans for a cluster whose node count changed. It searches
// every feasible pipeline depth on the new cluster (TP and DP are kept: they
// shard parameters and gradients, so a resize must not re-shard state), plans
// each candidate with the full two-level search, simulates the results, and
// returns the fastest. Candidates that cannot fill a 1F1B pipeline or fit
// device memory are skipped; if no depth survives, an error reports why.
//
// The old planner is read-only here except for seeding: a candidate that
// keeps the old PP inherits the cost table (nominal costs only — any
// installed straggler scale refers to stage indices of the dead shape and is
// deliberately not carried over).
func (pl *Planner) ReplanWithShape(cluster hardware.Cluster) (*ShapeReplan, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	perStage := pl.strat.TP * pl.strat.DP
	maxPP := cluster.Devices() / perStage
	if maxPP < 1 {
		return nil, fmt.Errorf("core: cluster %s has %d devices, fewer than one TP=%d x DP=%d stage",
			cluster.Name, cluster.Devices(), pl.strat.TP, pl.strat.DP)
	}
	if L := len(pl.layers); maxPP > L {
		maxPP = L
	}

	var best *ShapeReplan
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	// Descending depth, strict-improvement adoption: ties keep the deepest
	// feasible pipeline (use the devices we have).
	for pp := maxPP; pp >= 1; pp-- {
		strat := pl.strat
		strat.PP = pp
		if n, err := pl.train.MicroBatches(strat); err != nil || n < pp {
			keep(err)
			continue
		}
		// The profile is per-(device, TP, seq, micro) and carries no PP or
		// node-count dependence, so every candidate shares it.
		cand, err := NewPlannerWithProfile(pl.cfg, cluster, strat, pl.train, pl.prof, pl.opts)
		if err != nil {
			keep(err)
			continue
		}
		cand.SetClock(pl.clock)
		reused := 0
		if pp == pl.strat.PP {
			reused = cand.table.seedFrom(pl.table)
			pl.mu.Lock()
			// The partition DP memo is valid across cluster shapes exactly
			// when PP is unchanged, for the same reason the cost entries
			// are: the table depends on the cluster only through the stage
			// costs. Clone it (with the scale it was computed under) so the
			// candidate's search warm-starts instead of running cold; the
			// candidate carries no scale, so the warm-started solve
			// recomputes exactly the levels the dropped scale had touched.
			cand.partMemo = pl.partMemo.Clone()
			cand.memoScale = pl.memoScale
			pl.mu.Unlock()
		}
		plan, err := cand.Plan()
		if err != nil {
			keep(err)
			continue
		}
		res, err := cand.simulate(plan)
		if err != nil {
			return nil, err
		}
		if best == nil ||
			(res.IterTime < best.Sim.IterTime && !partition.AlmostEq(res.IterTime, best.Sim.IterTime)) {
			best = &ShapeReplan{Planner: cand, Plan: plan, Sim: res, Strategy: strat, ReusedCostEntries: reused}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, fmt.Errorf("core: no feasible pipeline shape on cluster %s (%d devices): %w",
				cluster.Name, cluster.Devices(), firstErr)
		}
		return nil, fmt.Errorf("core: no feasible pipeline shape on cluster %s (%d devices)",
			cluster.Name, cluster.Devices())
	}
	return best, nil
}
