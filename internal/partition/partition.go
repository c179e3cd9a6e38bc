// Package partition implements the adaptive stage-partitioning algorithm of
// §5 (Algorithm 1): a dynamic program over the transformer layer sequence
// that chooses stage boundaries to minimize total 1F1B iteration time,
// consuming the per-(stage, layer-range) optimal forward/backward times
// produced by the recomputation DP of §4.
package partition

import (
	"fmt"
	"math"
)

// CostFn reports the optimal forward and backward times (seconds per
// micro-batch) of layers i..j (inclusive, 0-based) when they run as stage s,
// and whether that assignment fits in stage s's memory. It corresponds to
// the f[s,i,j] / b[s,i,j] arrays of Algorithm 1.
type CostFn func(s, i, j int) (fwd, bwd float64, ok bool)

// Cell states. A cell moves from Absent to Infeasible or Feasible once, when
// the table's owner publishes it, and keeps that state.
const (
	Absent uint8 = iota
	Infeasible
	Feasible
)

// Cell is one entry of a cost table in the layout the row scan reads: the
// nominal forward and backward times of a (stage, layer range) and its state.
// F and B mean something only in a Feasible cell.
type Cell struct {
	F, B  float64
	State uint8
}

// Bound is a lower bound on the nominal forward and backward times of a
// (stage, layer range), known before its cell is resolved.
type Bound struct {
	F, B float64
}

// Rows is the row view of a cost table that Algorithm 1 scans. For a stage s
// and a start layer i, the stage ends j = i, i+1, … sit at constant strides
// in both arrays, so the scan reaches every cell of a row by index arithmetic:
// with c, b = Base(s, i), cell (s, i, j) is Cells[c+(j−i)·Stride] and its
// bound Bounds[b+(j−i)·BoundStride]. The last stage runs only the ranges that
// end with the last layer, so its row is one cell, and c is the index of
// (p−1, i, L−1).
type Rows struct {
	Cells  []Cell
	Stride int
	// Bounds cuts the scans (SolveBounded); nil scans every row uncut. Scaled
	// by Scale, each bound must keep BoundFn's contract against its scaled
	// cell.
	Bounds      []Bound
	BoundStride int
	// Base returns the indices of row (s, i)'s first cell and first bound.
	// The scan calls it once per row, before it reads the row.
	Base func(s, i int) (cell, bound int)
	// Scale multiplies stage s's cells and bounds by Scale[s]; nil is the
	// nominal table.
	Scale []float64
	// Resolve returns the value of cell (s, i, j), which the scan found
	// Absent; whether it publishes the cell into Cells is the caller's
	// business. A returned cell that is not Feasible counts as infeasible.
	// It is the only call the scan makes per cell, and it makes it only
	// for an absent one.
	Resolve func(s, i, j int) Cell
}

// BoundFn reports lower bounds on the forward and backward times of layers
// i..j run as stage s, known before the cost itself is asked for. It lets
// Algorithm 1 end a scan early without changing a bit of its result (DESIGN
// §5). Two properties are the caller's to keep: for every (s, i, j) the cost
// reports feasible, fwd+bwd does not exceed the cost's f+b by more than a
// relative 2⁻³¹; and for fixed (s, i), fwd+bwd is nondecreasing in j.
type BoundFn func(s, i, j int) (fwd, bwd float64)

// State is the DP state of Algorithm 1: the best result for the layer suffix
// starting at some layer when stages s..p−1 remain.
type State struct {
	// W is the warmup-phase time from this stage to the last (Eq. 3).
	W float64
	// E is the ending-phase time from this stage to the last.
	E float64
	// M is the maximum forward+backward (micro-step) time from this stage
	// to the last — the steady-phase bottleneck.
	M float64
	// F and B are the forward and backward times of this stage itself.
	F float64
	// B is the backward time of this stage.
	B float64
	// T is the modeled total time W + E + (n−p+s)·M.
	T float64
	// Split is the last layer index of this stage (the stage covers
	// layers i..Split and the next stage starts at Split+1).
	Split int
	// OK is false when no memory-feasible split exists.
	OK bool
}

// Plan is a complete partitioning.
type Plan struct {
	// Bounds has p+1 entries; stage s covers layers Bounds[s]..Bounds[s+1]−1.
	Bounds []int
	// Total is the modeled iteration time W₀ + E₀ + (n−p)·M₀.
	Total float64
	// W, E and M are the stage-0 phase values.
	W, E, M float64
	// Fwd and Bwd are the per-stage forward/backward times.
	Fwd, Bwd []float64
	// DPCells counts the (stage, start, end) cost evaluations the DP
	// performed — the search-effort figure the observability layer reports.
	// A warm-started solve counts only the recomputed levels here.
	DPCells int
	// WarmCells counts the cost evaluations represented by DP levels reused
	// from a warm-start memo instead of being recomputed; nonzero only for
	// SolveMemo runs that actually reused levels.
	WarmCells int
	// FrontierStates is the total number of Pareto states kept across all
	// DP cells; nonzero only for SolveExact.
	FrontierStates int
}

// Solve runs Algorithm 1 for L layers, p stages and n micro-batches.
// It returns an error when the inputs are malformed or no memory-feasible
// partitioning exists.
func Solve(L, p, n int, cost CostFn) (Plan, error) {
	// A nil memo forces a cold solve: every level is computed from scratch
	// by the shared level code in incremental.go.
	return SolveMemo(L, p, n, cost, nil, p-1)
}

// SolveWorkers is Solve; it remains only because the frozen bench/ calls it.
func SolveWorkers(L, p, n int, cost CostFn, _ int) (Plan, error) { return Solve(L, p, n, cost) }

// Evaluate computes the modeled iteration time of an arbitrary partitioning
// under the same 1F1B cost model Algorithm 1 optimizes (Eq. 3 recurrences).
// bounds must have p+1 entries. It returns ok=false when any stage is
// memory-infeasible.
func Evaluate(bounds []int, n int, cost CostFn) (total, w0, e0, m0 float64, ok bool) {
	p := len(bounds) - 1
	fs := make([]float64, p)
	bs := make([]float64, p)
	for s := 0; s < p; s++ {
		f, b, feasible := cost(s, bounds[s], bounds[s+1]-1)
		if !feasible {
			return 0, 0, 0, 0, false
		}
		fs[s], bs[s] = f, b
	}
	w := fs[p-1]
	e := bs[p-1]
	m := fs[p-1] + bs[p-1]
	for s := p - 2; s >= 0; s-- {
		w = fs[s] + math.Max(w+bs[s+1], float64(p-s-1)*fs[s])
		e = bs[s] + math.Max(e+fs[s+1], float64(p-s-1)*bs[s])
		m = math.Max(m, fs[s]+bs[s])
	}
	return w + e + float64(n-p)*m, w, e, m, true
}

// BruteForce enumerates every partitioning of L layers into p non-empty
// contiguous stages, evaluates each with Evaluate, and returns the best.
// It is the test oracle; exponential in p.
func BruteForce(L, p, n int, cost CostFn) (Plan, error) {
	if err := check(L, p, n); err != nil {
		return Plan{}, err
	}
	bounds := make([]int, p+1)
	bounds[0], bounds[p] = 0, L
	best := Plan{Total: math.Inf(1)}
	var rec func(stage int)
	rec = func(stage int) {
		if stage == p-1 {
			// The last stage takes everything that remains.
			total, w, e, m, ok := Evaluate(bounds, n, cost)
			if ok && total < best.Total {
				best = Plan{Bounds: append([]int(nil), bounds...), Total: total, W: w, E: e, M: m}
			}
			return
		}
		// Stage `stage` starts at bounds[stage]; choose its end, leaving
		// at least one layer per remaining stage.
		for end := bounds[stage] + 1; end <= L-(p-stage-1); end++ {
			bounds[stage+1] = end
			rec(stage + 1)
		}
	}
	rec(0)
	if math.IsInf(best.Total, 1) {
		return Plan{}, fmt.Errorf("partition: brute force found no feasible partitioning")
	}
	best.Fwd = make([]float64, p)
	best.Bwd = make([]float64, p)
	for s := 0; s < p; s++ {
		f, b, _ := cost(s, best.Bounds[s], best.Bounds[s+1]-1)
		best.Fwd[s], best.Bwd[s] = f, b
	}
	return best, nil
}

// Even returns the uniform partitioning baseline: decoder layers split as
// evenly as possible, with the remainder given to the outer stages so the
// embedding and head layers (assigned to the first and last stage) are
// balanced the way Megatron-style frameworks do it. bounds[0]=0,
// bounds[p]=L.
func Even(L, p int) []int {
	bounds := make([]int, p+1)
	base := L / p
	rem := L % p
	at := 0
	for s := 0; s < p; s++ {
		bounds[s] = at
		at += base
		if s >= p-rem { // trailing stages absorb the remainder
			at++
		}
	}
	bounds[p] = L
	return bounds
}

// AlmostEq reports whether two modeled times/costs are equal up to the
// relative tolerance the solvers treat as a tie. Modeled phase values are
// sums of per-unit float64 terms, so two algebraically-equal expressions can
// differ in the last bits depending on summation order; exact ==/!= on them
// makes tie-breaking (and therefore the chosen plan) depend on incidental
// evaluation order. The floatcmp analyzer points here.
func AlmostEq(a, b float64) bool {
	return math.Abs(a-b) <= almostEqTol*(1+math.Abs(a)+math.Abs(b))
}

// almostEqTol is ~4 ulps at unit scale: far below any real cost difference
// the models produce (microseconds on second-scale times), far above
// summation-order noise.
const almostEqTol = 1e-12

func check(L, p, n int) error {
	switch {
	case L <= 0:
		return fmt.Errorf("partition: need at least one layer, got %d", L)
	case p <= 0:
		return fmt.Errorf("partition: need at least one stage, got %d", p)
	case p > L:
		return fmt.Errorf("partition: %d stages exceed %d layers", p, L)
	case n < p:
		return fmt.Errorf("partition: 1F1B needs micro-batches n (%d) >= stages p (%d)", n, p)
	}
	return nil
}
