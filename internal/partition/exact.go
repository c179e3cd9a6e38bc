package partition

import (
	"fmt"
	"math"
	"sort"
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
// It reads the table through the row view rows as Algorithm 1 does, but
// never cuts a scan by rows.Bounds: a candidate whose local T loses to the
// cell's best can still be a non-dominated state that wins upstream (DESIGN
// §5).
//
// maxFrontier caps the per-cell frontier size as a safety valve; 0 means
// unlimited. When the cap trims a frontier, the result may lose optimality
// (it keeps the locally-best states by T), which the returned exact flag
// reports.
//
// Unlike Solve it has no warm-start memo: it is an ablation baseline that
// runs one cold search (DESIGN §4).
func SolveExact(L, p, n int, rows *Rows, maxFrontier int) (Plan, bool, error) {
	return solveExact(L, p, n, rows, maxFrontier, false)
}

// exState is one Pareto-frontier state of the exact solver: the Eq. 3 phase
// vector plus the split that produced it and the index of its parent state
// in the next stage's frontier.
type exState struct {
	W, E, M, F, B float64
	split         int
	next          int
}

// solveExact is SolveExact with the dominance filter optionally disabled (see
// pruneFrontier). frontiers[s][i] is the Pareto set for layers i..L−1, stages
// s..p−1; only the reachable starts of each level are computed.
func solveExact(L, p, n int, rows *Rows, maxFrontier int, noDominance bool) (Plan, bool, error) {
	if err := check(L, p, n); err != nil {
		return Plan{}, false, err
	}
	frontiers := make([][][]exState, p)
	for s := range frontiers {
		frontiers[s] = make([][]exState, L)
	}
	exact := true
	plan := Plan{Bounds: make([]int, p+1)}
	for s := p - 1; s >= 0; s-- {
		lo, hi := StageStarts(L, p, s)
		sc := rows.scale(s)
		for i := lo; i <= hi; i++ {
			k, _ := rows.Base(s, i)
			if s == p-1 {
				plan.DPCells++
				if c := rows.cell(k, s, i, L-1); c.State == Feasible {
					f, b := float64(c.F*sc), float64(c.B*sc)
					frontiers[s][i] = []exState{{W: f, E: b, M: f + b, F: f, B: b, split: L - 1}}
					plan.FrontierStates++
				}
				continue
			}
			var states []exState
			for j := i; j <= L-p+s; j, k = j+1, k+rows.Stride {
				nextStates := frontiers[s+1][j+1]
				if len(nextStates) == 0 {
					continue
				}
				plan.DPCells++
				c := rows.cell(k, s, i, j)
				if c.State != Feasible {
					continue
				}
				f, b := float64(c.F*sc), float64(c.B*sc)
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
			pruned, trimmed := pruneFrontier(states, s, n, p, maxFrontier, noDominance)
			frontiers[s][i] = pruned
			if trimmed {
				exact = false
			}
			plan.FrontierStates += len(pruned)
		}
	}

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
	plan.Total, plan.W, plan.E, plan.M = bestT, root[bestIdx].W, root[bestIdx].E, root[bestIdx].M
	at, idx := 0, bestIdx
	for s := 0; s < p; s++ {
		st := frontiers[s][at][idx]
		plan.Bounds[s] = at
		at, idx = st.split+1, st.next
	}
	plan.Bounds[p] = L
	return plan, exact, nil
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
