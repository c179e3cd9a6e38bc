package core

import (
	"context"

	"adapipe/internal/obs"
	"adapipe/internal/partition"
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

// prefillTask is one unpublished (stage, class) entry the partition DP may
// evaluate, by a representative (s, i, j) range, that passed the
// static-memory gate.
type prefillTask struct {
	idx, s, i, j int
	perMicro     int64
}

// prefillCosts solves every stage cost the partition DP can touch, fanned
// across the worker pool, publishing each into the cost table as it
// completes, and returns how many lookups it stood in for. This is the
// parallel heart of the search: the class solves are mutually independent, so
// they are the part worth parallelizing — the DP itself then runs against a
// table where every lookup is a hit.
//
// The domain is the reachable one (costTable.reachable), enumerated by class,
// not by range — O(pL) with isomorphism: the last stage takes a suffix that
// leaves each earlier stage a layer, stage 0 starts at layer 0, and a stage s
// between them starts at layer s or later and ends by layer L−p+s, where the
// earliest start of each first-layer kind represents every range of that kind
// and length. Without isomorphism every range is its own class. Statically
// infeasible classes are settled during the enumeration and never become
// tasks. A worker that wins a task's entry runs the class solve, which also
// claims the entry's same-quantum siblings at other stages (solveClass);
// their own tasks then find them taken and cost one failed compare-and-swap.
// Tasks are ordered stage by stage, so the tasks two workers hold at one time
// are different classes.
//
// Determinism: each solve is a pure function of immutable planner state and
// lands in the entries its class owns, so no entry depends on which worker
// ran which task or in what order, and the produced plans are byte-identical
// to the serial search (TestParallelPlanMatchesSerial). Per-worker counters
// are commutative sums; the one thing scheduling can move is how the fills
// split between KnapsackRuns and KnapsackShared, if two workers start on two
// stages of one class at the same moment and each fills a table for the
// siblings it got.
//
// The serial search publishes a subset of this domain: its DP never looks up
// a range (s, i, j) when the layers after j admit no feasible partitioning
// into the remaining stages, so serially such an entry is published only when
// a class solve claims it as a sibling. That is the whole difference, and it
// moves effort counters only — the plan never differs.
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
	lo, hi := partition.StageStarts(L, p, p-1)
	for i := lo; i <= hi; i++ {
		add(p-1, i, L-1)
	}
	// Upper levels: stage s may cover [i, j] with j <= L-p+s so every later
	// stage keeps at least one layer.
	for s := p - 2; s >= 0; s-- {
		if t.iso {
			for kind := 0; kind < numKinds; kind++ {
				i := t.minStart[s*numKinds+kind]
				for j := i; j <= L-p+s; j++ {
					add(s, i, j)
				}
			}
			continue
		}
		lo, hi := partition.StageStarts(L, p, s)
		for i := lo; i <= hi; i++ {
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
		pl.solveClass(src, family, task.s, task.i, task.j, task.perMicro, solvers[w], &statsW[w])
		// Each task won is one cost evaluation served without a cache hit,
		// matching what the serial miss path counts; the siblings its solve
		// published are not.
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
