package core

import (
	"context"

	"adapipe/internal/obs"
	"adapipe/internal/pool"
)

// workerCount resolves the Options.Workers knob: values <= 1 select the
// serial search.
func (pl *Planner) workerCount() int {
	if pl.opts.Workers <= 1 {
		return 1
	}
	return pl.opts.Workers
}

// prefillTask is one unpublished class the partition DP may evaluate, by a
// representative (s, i, j) range, that passed the static-memory gate.
type prefillTask struct {
	idx, s, i, j int
	perMicro     int64
}

// prefillCosts solves every stage cost the partition DP can touch, fanned
// across the worker pool, publishing each into the cost table as it
// completes, and returns how many classes it resolved. This is the parallel
// heart of the search: the per-(stage, iso-class) knapsack solves are
// mutually independent, so they are the part worth parallelizing — the DP
// itself then runs against a table where every lookup is a hit.
//
// The domain is enumerated by class, not by range — O(pL) with isomorphism:
// the last stage takes a suffix (one class per start), and any earlier stage
// s ends by layer L−p+s, where one start per first-layer kind represents
// every range of that kind and length. Without isomorphism every range is its
// own class. Statically infeasible classes are settled during the
// enumeration and never become tasks.
//
// Determinism: each task's solve is a pure function of immutable planner
// state and lands in the entry its class owns, so nothing observable depends
// on which worker ran which task or in what order; per-worker counters are
// commutative sums. The produced plans are byte-identical to the serial
// search (TestParallelPlanMatchesSerial).
//
// The enumerated domain is a superset of what the lazy serial search touches
// (the serial DP skips ranges whose successor state is infeasible), so
// parallel SearchStats may count somewhat more knapsack runs than serial —
// the plan, however, never differs.
//
// Cancellation: when ctx is done the workers stop pulling tasks; the tasks
// that never ran leave their entries absent (a worker claims an entry only
// when it starts on it), and the context error is returned so PlanContext can
// abandon the search.
func (pl *Planner) prefillCosts(ctx context.Context, workers int) (resolved int, err error) {
	L := len(pl.layers)
	p := pl.strat.PP
	t := pl.table

	var tasks []prefillTask
	add := func(s, i, j int) {
		idx := t.index(s, i, j)
		e := &t.hot[idx]
		if e.state.Load() != costAbsent {
			return
		}
		perMicro, fits := pl.microBudget(s, i, j)
		if !fits {
			if e.state.CompareAndSwap(costAbsent, costInfeasible) {
				resolved++
			}
			return
		}
		tasks = append(tasks, prefillTask{idx: idx, s: s, i: i, j: j, perMicro: perMicro})
	}
	// Base level: the last stage takes everything that remains.
	for i := 0; i < L; i++ {
		add(p-1, i, L-1)
	}
	// Upper levels: stage s may cover [i, j] with i <= j <= L-p+s so every
	// later stage keeps at least one layer.
	var seen [numKinds]bool
	for i := 0; i < L; i++ {
		if t.iso {
			if seen[pl.layers[i].Kind] {
				continue
			}
			seen[pl.layers[i].Kind] = true
		}
		for s := p - 2; s >= 0; s-- {
			for j := i; j <= L-p+s; j++ {
				add(s, i, j)
			}
		}
	}
	if len(tasks) == 0 {
		return resolved, ctx.Err()
	}

	// Borrow one solver per worker for the whole fan-out; their scratch
	// arenas survive across Plan calls on the planner's pool.
	workers = pool.Clamp(workers, len(tasks))
	solvers := make([]*stageSolver, workers)
	src, family := pl.borrowSolvers(solvers)
	tr := obs.TracerFrom(ctx)
	for w, sv := range solvers {
		// Worker w's knapsack spans render on trace track w+1, leaving
		// track 0 to the request-serial phases; the solver itself records
		// them (recompute.Solver.Trace), the deepest traced level.
		sv.knap.Trace = tr
		sv.knap.Tid = w + 1
	}
	statsW := make([]SearchStats, workers)
	wallStart := pl.clock()
	err = pool.RunContext(ctx, workers, len(tasks), func(w, k int) {
		task := tasks[k]
		// A concurrent search may have taken the class since the
		// enumeration; it publishes, and the DP parks on it if need be.
		if !t.hot[task.idx].state.CompareAndSwap(costAbsent, costSolving) {
			return
		}
		start := pl.clock()
		pl.solveClaimed(src, family, task.idx, task.s, task.i, task.j, task.perMicro, solvers[w], &statsW[w])
		// Each prefill solve is one cost evaluation served without a
		// cache hit, matching what the serial miss path counts.
		statsW[w].CostEvaluations++
		statsW[w].ParallelBusy += pl.clock().Sub(start)
	})
	st := SearchStats{ParallelWall: pl.clock().Sub(wallStart)}
	for w := range statsW {
		resolved += statsW[w].CostEvaluations
		st.addSolves(statsW[w])
	}
	pl.returnSolvers(solvers, st)
	return resolved, err
}
