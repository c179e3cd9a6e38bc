package partition

import (
	"fmt"
	"math"
)

// Memo is the saved DP table of a completed SolveMemo run, used to
// warm-start the next solve. The suffix DP of Algorithm 1 has a locality
// property the replanner exploits: the level-s states depend only on the
// stage costs of stages s..p−1, so when a repricing changes the costs of
// stages in some set S, every level strictly above max(S) is bit-for-bit
// identical to the previous solve and can be reused; only levels
// 0..max(S) need recomputation. The zero Memo is valid and behaves like a
// cold solve on first use.
//
// A Memo is not safe for concurrent use; callers serialize access. The
// planner takes its memo from its solver under Planner.mu when a search
// starts and puts it back only when the search completes, so a search that
// fails, is cancelled or panics leaves the solver with none.
type Memo struct {
	l, p, n int
	// levels[s][i] is the Algorithm 1 state for layers i..l−1 with stages
	// s..p−1 — the P table of Solve, kept across solves.
	levels [][]State
	// cells[s] counts the cost evaluations level s performed when it was
	// last computed, so a warm-started solve can report how much work the
	// reused levels represent.
	cells []int64
	valid bool
}

// Valid reports whether the memo holds a completed solve for exactly L
// layers, p stages and n micro-batches.
func (m *Memo) Valid(L, p, n int) bool {
	return m != nil && m.valid && m.l == L && m.p == p && m.n == n
}

// SolveMemo runs Algorithm 1 warm-started from memo: levels above stale are
// reused from the previous solve and only levels 0..stale are recomputed
// (stale = p−1 is a cold solve; stale = −1 reassembles the plan without
// recomputing anything). The caller asserts that every stage cost at levels
// above stale is unchanged since the memo was filled; under that contract
// the result is bit-identical to a cold Solve run, because the recomputed
// levels use the same ascending-j scan, the same float operations and the
// same first-win tie-break as the cold path, and the reused levels are the
// cold path's own outputs.
//
// An invalid or shape-mismatched memo (including nil) forces a cold solve.
// A solve that fails — infeasible inputs or a cost function neutered by
// context cancellation — leaves the memo invalid so the next solve starts
// cold rather than trusting a partially-recomputed table.
//
// The ignored trailing ints exist only because the frozen bench/ still passes
// a worker count; program call sites pass nothing.
func SolveMemo(L, p, n int, cost CostFn, memo *Memo, stale int, _ ...int) (Plan, error) {
	return SolveRows(L, p, n, CostRows(cost), memo, stale)
}

// SolveRows runs Algorithm 1 over the row view rows, warm-started from memo
// as SolveMemo is. When rows has bounds, a scan ends at the first stage end
// whose bound proves no candidate from there on can beat the cell's best so
// far: the levels, and so the plan, are bit-identical to an uncut solve, and
// DPCells counts only the evaluations the cut left. It is the one scan every
// Algorithm 1 entry point runs.
func SolveRows(L, p, n int, rows *Rows, memo *Memo, stale int) (Plan, error) {
	if err := check(L, p, n); err != nil {
		return Plan{}, err
	}
	if memo == nil {
		memo = &Memo{}
	}
	if !memo.Valid(L, p, n) {
		memo.l, memo.p, memo.n = L, p, n
		memo.levels = make([][]State, p)
		for s := range memo.levels {
			memo.levels[s] = make([]State, L)
		}
		memo.cells = make([]int64, p)
		stale = p - 1
	}
	if stale > p-1 {
		stale = p - 1
	}
	memo.valid = false
	for s := stale; s >= 0; s-- {
		memo.cells[s] = solveLevel(L, p, n, s, rows, memo.levels)
	}
	plan, err := assembleStates(L, p, memo.levels)
	if err != nil {
		return Plan{}, err
	}
	for s := 0; s < p; s++ {
		if s <= stale {
			plan.DPCells += int(memo.cells[s])
		} else {
			plan.WarmCells += int(memo.cells[s])
		}
	}
	memo.valid = true
	return plan, nil
}

// StageStarts returns the start layers [lo, hi] a partitioning can give stage
// s of p over L layers: stage 0 starts at layer 0 and nowhere else; any later
// stage starts after at least s layers and leaves at least one layer to each
// of the p−s−1 stages behind it. Both solvers compute only these cells. By
// induction down the levels that never changes a state the plan can contain:
// a cell (s, i) in range reads level s+1 at j+1 for j ∈ [i, L−p+s], and
// [i+1, L−p+s+1] lies inside level s+1's own range, so every state on the
// split chain walked from P[0][0] is computed from computed states only. The
// cells outside are never read and keep the zero value a fresh table has.
func StageStarts(L, p, s int) (lo, hi int) {
	if s == 0 {
		return 0, 0
	}
	return s, L - p + s
}

// solveLevel computes the reachable cells of DP level s of Algorithm 1 into
// P[s] and returns the number of cost evaluations performed. Every reachable
// cell is overwritten unconditionally so a reused table never leaks stale
// states into a recomputed level. A published cell costs its index step and
// plain reads of it, its bound and the next level's state; only an absent
// one calls out, to rows.Resolve (Rows.cell). The bound is scaled as the
// cell is, each product rounded on its own.
func solveLevel(L, p, n, s int, rows *Rows, P [][]State) int64 {
	var cells int64
	lo, hi := StageStarts(L, p, s)
	stride, sc := rows.Stride, rows.scale(s)
	if s == p-1 {
		// Base case: the last stage takes everything that remains.
		for i := lo; i <= hi; i++ {
			cells++
			k, _ := rows.Base(s, i)
			c := rows.cell(k, s, i, L-1)
			if c.State != Feasible {
				P[p-1][i] = State{}
				continue
			}
			f, b := float64(c.F*sc), float64(c.B*sc)
			P[p-1][i] = State{
				W: f, E: b, M: f + b, F: f, B: b,
				T:     f + b + float64(n-1)*(f+b),
				Split: L - 1,
				OK:    true,
			}
		}
		return cells
	}
	// Stage s must end no later than layer L−(p−s) so every later stage
	// keeps at least one layer. Each cell i at this level reads only level
	// s+1 and writes only P[s][i].
	next, later, steady, nf := P[s+1], float64(p-s-1), float64(n-p+s), float64(n)
	bounds, bstride := rows.Bounds, rows.BoundStride
	for i := lo; i <= hi; i++ {
		best := State{T: math.Inf(1)}
		k, kb := rows.Base(s, i)
		for j := i; j <= L-p+s; j, k, kb = j+1, k+stride, kb+bstride {
			// t ≥ n·(f+b) for every candidate (DESIGN §5), and the bound only
			// grows with j: once it passes best.T no later j can win the
			// strict compare below, so the scan ends before their lookups.
			if bounds != nil {
				bd := &bounds[kb]
				lf, lb := float64(bd.F*sc), float64(bd.B*sc)
				if nf*(lf+lb)*cutMargin > best.T {
					break
				}
			}
			nx := &next[j+1]
			if !nx.OK {
				continue
			}
			cells++
			c := rows.cell(k, s, i, j)
			if c.State != Feasible {
				continue
			}
			f, b := float64(c.F*sc), float64(c.B*sc)
			w := f + fmax(nx.W+nx.B, float64(later*f))
			e := b + fmax(nx.E+nx.F, float64(later*b))
			m := fmax(nx.M, f+b)
			t := w + e + steady*m
			if t < best.T {
				best = State{W: w, E: e, M: m, F: f, B: b, T: t, Split: j, OK: true}
			}
		}
		P[s][i] = best
	}
	return cells
}

// fmax is math.Max bit for bit. An ordered pair is its common case and
// needs no call; a tie, a NaN or a signed zero goes to math.Max, which on
// amd64 is an assembly call the compiler cannot inline.
func fmax(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// cutMargin shrinks the scan cut's bound by a relative 2⁻³⁰, which covers a
// bound's permitted 2⁻³¹ excess (Rows.Bounds) and the few roundings between
// n·(f+b) and the t the scan computes (DESIGN §5).
const cutMargin = 1 - 0x1p-30

// assembleStates reads the solved table back into a Plan by walking the
// split chain from the root state.
func assembleStates(L, p int, P [][]State) (Plan, error) {
	root := P[0][0]
	if !root.OK {
		return Plan{}, fmt.Errorf("partition: no memory-feasible partitioning of %d layers into %d stages", L, p)
	}
	plan := Plan{Bounds: make([]int, p+1), Total: root.T, W: root.W, E: root.E, M: root.M}
	at := 0
	for s := 0; s < p; s++ {
		plan.Bounds[s] = at
		at = P[s][at].Split + 1
	}
	plan.Bounds[p] = L
	return plan, nil
}
