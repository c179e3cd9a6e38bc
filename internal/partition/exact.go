package partition

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"adapipe/internal/pool"
)

// SolveExact is an optimal variant of Algorithm 1. The published algorithm
// keeps a single best state per (stage, start-layer) — the one minimizing
// its local T = W + E + (n−p+s)·M — which can discard a state whose larger
// local T would have combined better upstream (the "local minimums" §3
// alludes to). SolveExact instead keeps the full Pareto frontier over the
// state vector (W, E, M, F, B): the parent recurrences are monotone
// non-decreasing in all five components, so a dominated state can never
// participate in an optimal solution and pruning to the frontier is exact.
//
// maxFrontier caps the per-cell frontier size as a safety valve; 0 means
// unlimited. When the cap trims a frontier, the result may lose optimality
// (it keeps the locally-best states by T), which the returned exact flag
// reports.
func SolveExact(L, p, n int, cost CostFn, maxFrontier int) (Plan, bool, error) {
	return SolveExactWorkers(L, p, n, cost, maxFrontier, 1)
}

// SolveExactWorkers is SolveExact with the per-level DP cells fanned across a
// bounded worker pool, exactly as SolveWorkers does for Solve: cells at one
// level are independent, each cell's candidate generation and Pareto prune
// stay serial and deterministic, and the result is bit-identical to
// SolveExact for every worker count. With workers > 1 the cost function must
// be safe for concurrent use.
func SolveExactWorkers(L, p, n int, cost CostFn, maxFrontier, workers int) (Plan, bool, error) {
	return solveExactMemo(L, p, n, cost, maxFrontier, nil, p-1, workers, false)
}

// SolveExactMemo is SolveExactWorkers warm-started from memo, under the same
// contract as SolveMemo: levels above stale are reused bit-for-bit from the
// previous solve, levels 0..stale are recomputed with the identical serial
// candidate scan and AlmostEq-tied Pareto prune, so the result matches a
// cold SolveExactWorkers run exactly. An invalid or shape-mismatched memo
// (including a maxFrontier change) forces a cold solve.
func SolveExactMemo(L, p, n int, cost CostFn, maxFrontier int, memo *ExactMemo, stale, workers int) (Plan, bool, error) {
	return solveExactMemo(L, p, n, cost, maxFrontier, memo, stale, workers, false)
}

// exState is one Pareto-frontier state of the exact solver: the Eq. 3 phase
// vector plus the split that produced it and the index of its parent state
// in the next stage's frontier.
type exState struct {
	W, E, M, F, B float64
	split         int
	next          int
}

// ExactMemo is the exact-solver counterpart of Memo: the full per-cell
// Pareto frontiers of a completed solve, kept so the next solve can reuse
// every level whose stage costs are unchanged. Not safe for concurrent use.
type ExactMemo struct {
	l, p, n, maxFrontier int
	// frontiers[s][i] is the Pareto set for layers i..l−1, stages s..p−1.
	frontiers [][][]exState
	// trimmed[s] records whether any cell at level s hit the frontier cap
	// when it was last computed (losing the optimality guarantee).
	trimmed []bool
	// cells[s] counts level s's cost evaluations when it was last computed.
	cells []int64
	valid bool
}

// Valid reports whether the memo holds a completed solve for exactly this
// shape and frontier cap.
func (m *ExactMemo) Valid(L, p, n, maxFrontier int) bool {
	return m != nil && m.valid && m.l == L && m.p == p && m.n == n && m.maxFrontier == maxFrontier
}

// Clone deep-copies the memo so two planners can warm-start independently.
func (m *ExactMemo) Clone() *ExactMemo {
	if m == nil {
		return nil
	}
	out := &ExactMemo{l: m.l, p: m.p, n: m.n, maxFrontier: m.maxFrontier, valid: m.valid}
	out.frontiers = make([][][]exState, len(m.frontiers))
	for s := range m.frontiers {
		out.frontiers[s] = make([][]exState, len(m.frontiers[s]))
		for i := range m.frontiers[s] {
			out.frontiers[s][i] = append([]exState(nil), m.frontiers[s][i]...)
		}
	}
	out.trimmed = append([]bool(nil), m.trimmed...)
	out.cells = append([]int64(nil), m.cells...)
	return out
}

func solveExactMemo(L, p, n int, cost CostFn, maxFrontier int, memo *ExactMemo, stale, workers int, noDominance bool) (Plan, bool, error) {
	if err := check(L, p, n); err != nil {
		return Plan{}, false, err
	}
	if memo == nil {
		memo = &ExactMemo{}
	}
	if !memo.Valid(L, p, n, maxFrontier) {
		memo.l, memo.p, memo.n, memo.maxFrontier = L, p, n, maxFrontier
		memo.frontiers = make([][][]exState, p)
		for s := range memo.frontiers {
			memo.frontiers[s] = make([][]exState, L)
		}
		memo.trimmed = make([]bool, p)
		memo.cells = make([]int64, p)
		stale = p - 1
	}
	if stale > p-1 {
		stale = p - 1
	}
	memo.valid = false
	for s := stale; s >= 0; s-- {
		memo.cells[s] = solveExactLevel(L, p, n, s, cost, memo, workers, noDominance)
	}

	exact := true
	for _, tr := range memo.trimmed {
		if tr {
			exact = false
		}
	}
	frontiers := memo.frontiers
	root := frontiers[0][0]
	if len(root) == 0 {
		return Plan{}, exact, fmt.Errorf("partition: no memory-feasible partitioning of %d layers into %d stages", L, p)
	}
	bestIdx, bestT := 0, math.Inf(1)
	for idx, st := range root {
		if t := st.W + st.E + float64(n-p)*st.M; t < bestT {
			bestT, bestIdx = t, idx
		}
	}
	frontierStates := 0
	for s := range frontiers {
		for i := range frontiers[s] {
			frontierStates += len(frontiers[s][i])
		}
	}
	plan := Plan{
		Bounds:         make([]int, p+1),
		Total:          bestT,
		W:              root[bestIdx].W,
		E:              root[bestIdx].E,
		M:              root[bestIdx].M,
		Fwd:            make([]float64, p),
		Bwd:            make([]float64, p),
		FrontierStates: frontierStates,
	}
	for s := 0; s < p; s++ {
		if s <= stale {
			plan.DPCells += int(memo.cells[s])
		} else {
			plan.WarmCells += int(memo.cells[s])
		}
	}
	at, idx := 0, bestIdx
	for s := 0; s < p; s++ {
		st := frontiers[s][at][idx]
		plan.Bounds[s] = at
		plan.Fwd[s] = st.F
		plan.Bwd[s] = st.B
		at, idx = st.split+1, st.next
	}
	plan.Bounds[p] = L
	memo.valid = true
	return plan, exact, nil
}

// solveExactLevel computes the reachable cells of one frontier level into
// memo.frontiers[s] and returns its cost-evaluation count. Every reachable
// cell is overwritten unconditionally so a reused table never leaks stale
// frontiers into a recomputed level.
func solveExactLevel(L, p, n, s int, cost CostFn, memo *ExactMemo, workers int, noDominance bool) int64 {
	// Trim flags and cell counts are order-insensitive aggregates, safe and
	// exact under any worker interleaving.
	var cells atomic.Int64
	var trimmed atomic.Bool
	frontiers := memo.frontiers
	lo, hi := StageStarts(L, p, s)
	if s == p-1 {
		pool.Run(workers, hi-lo+1, func(_, k int) {
			i := lo + k
			cells.Add(1)
			f, b, ok := cost(p-1, i, L-1)
			if !ok {
				frontiers[p-1][i] = nil
				return
			}
			frontiers[p-1][i] = []exState{{W: f, E: b, M: f + b, F: f, B: b, split: L - 1}}
		})
		memo.trimmed[s] = false
		return cells.Load()
	}
	// Each cell i reads only level s+1 and writes only frontiers[s][i].
	pool.Run(workers, hi-lo+1, func(_, k int) {
		i := lo + k
		var states []exState
		for j := i; j <= L-p+s; j++ {
			nextStates := frontiers[s+1][j+1]
			if len(nextStates) == 0 {
				continue
			}
			cells.Add(1)
			f, b, ok := cost(s, i, j)
			if !ok {
				continue
			}
			for ni, nx := range nextStates {
				states = append(states, exState{
					W:     f + math.Max(nx.W+nx.B, float64(p-s-1)*f),
					E:     b + math.Max(nx.E+nx.F, float64(p-s-1)*b),
					M:     math.Max(nx.M, f+b),
					F:     f,
					B:     b,
					split: j,
					next:  ni,
				})
			}
		}
		pruned, tr := pruneFrontier(states, s, n, p, memo.maxFrontier, noDominance)
		frontiers[s][i] = pruned
		if tr {
			trimmed.Store(true)
		}
	})
	memo.trimmed[s] = trimmed.Load()
	return cells.Load()
}

// pruneFrontier sorts candidate states deterministically and filters the
// dominated ones. The sort breaks W-ties with E under AlmostEq: summation
// order must not decide which state sorts (and so survives a trimmed
// frontier) first. noDominance skips the dominance filter — the white-box
// oracle the property fuzz test uses to prove pruning never changes the
// optimum — while keeping the same deterministic sort and cap behavior.
func pruneFrontier(states []exState, s, n, p, maxFrontier int, noDominance bool) ([]exState, bool) {
	if len(states) <= 1 {
		return states, false
	}
	sort.Slice(states, func(a, b int) bool {
		if !AlmostEq(states[a].W, states[b].W) {
			return states[a].W < states[b].W
		}
		return states[a].E < states[b].E
	})
	out := states
	if !noDominance {
		// Filter dominated states pairwise; with five dimensions a quadratic
		// filter is fine at these sizes.
		out = nil
		for _, cand := range states {
			dominated := false
			for _, kept := range out {
				if kept.W <= cand.W && kept.E <= cand.E && kept.M <= cand.M &&
					kept.F <= cand.F && kept.B <= cand.B {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, cand)
			}
		}
	}
	trimmedHere := false
	if maxFrontier > 0 && len(out) > maxFrontier {
		trimmedHere = true
		sort.Slice(out, func(a, b int) bool {
			ta := out[a].W + out[a].E + float64(n-p+s)*out[a].M
			tb := out[b].W + out[b].E + float64(n-p+s)*out[b].M
			return ta < tb
		})
		out = out[:maxFrontier]
	}
	return out, trimmedHere
}
