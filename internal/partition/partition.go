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

// Rows is the row view of a cost table, the one way every solver reads it:
// Algorithm 1 (SolveRows), the exact variant (SolveExact) and the pricing of
// a given partitioning (Evaluate). For a stage s and a start layer i, the
// stage ends j = i, i+1, … sit at constant strides in both arrays, so a solver
// reaches every cell of a row by index arithmetic: with c, b = Base(s, i),
// cell (s, i, j) is Cells[c+(j−i)·Stride] and its bound
// Bounds[b+(j−i)·BoundStride]. The last stage runs only the ranges that end
// with the last layer, so its row is one cell, and c is the index of
// (p−1, i, L−1).
type Rows struct {
	Cells  []Cell
	Stride int
	// Bounds cuts Algorithm 1's scans; nil scans every row uncut. SolveExact
	// and Evaluate never read it. A bound lets a scan end early without
	// changing a bit of its result (DESIGN §5), provided two properties the
	// view's owner keeps: scaled by Scale, the bound's F+B does not exceed a
	// feasible cell's scaled F+B by more than a relative 2⁻³¹; and for fixed
	// (s, i), F+B is nondecreasing in j.
	Bounds      []Bound
	BoundStride int
	// Base returns the indices of row (s, i)'s first cell and first bound.
	// The scan calls it once per row, before it reads the row.
	Base func(s, i int) (cell, bound int)
	// Scale multiplies stage s's cells and bounds by Scale[s]; nil is the
	// nominal table.
	Scale []float64
	// Resolve returns the value of cell (s, i, j), which a solver found
	// Absent; whether it publishes the cell into Cells is the caller's
	// business. A returned cell that is not Feasible counts as infeasible.
	// It is the only call a solver makes per cell, and it makes it only
	// for an absent one.
	Resolve func(s, i, j int) Cell
}

// scale is stage s's multiplier: Scale[s], or 1 for the nominal table (x·1
// is x, bit for bit).
func (r *Rows) scale(s int) float64 {
	if r.Scale == nil {
		return 1
	}
	return r.Scale[s]
}

// cell returns cell k, the cell of (s, i, j), resolving it first if it is
// absent. A solver scales a feasible cell's times by its stage's multiplier
// as float64(c.F·sc): the explicit conversion rounds each product on its own,
// so no multiply-add fuses across it and a scaled cell carries the bits of a
// cost function that scales its times before returning them.
func (r *Rows) cell(k, s, i, j int) Cell {
	if c := r.Cells[k]; c.State != Absent {
		return c
	}
	return r.Resolve(s, i, j)
}

// CostFn reports the optimal forward and backward times (seconds per
// micro-batch) of layers i..j (inclusive, 0-based) when they run as stage s,
// and whether that assignment fits in stage s's memory. It corresponds to
// the f[s,i,j] / b[s,i,j] arrays of Algorithm 1.
type CostFn func(s, i, j int) (fwd, bwd float64, ok bool)

// CostRows is the row view of a cost function: one absent cell at stride 0,
// so every cell a solver reads resolves through cost, once per read. It has
// no bounds and no scale.
func CostRows(cost CostFn) *Rows {
	return &Rows{
		Cells: make([]Cell, 1),
		Base:  func(int, int) (int, int) { return 0, 0 },
		Resolve: func(s, i, j int) Cell {
			f, b, ok := cost(s, i, j)
			if !ok {
				return Cell{State: Infeasible}
			}
			return Cell{F: f, B: b, State: Feasible}
		},
	}
}

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

// Solve runs Algorithm 1 for L layers, p stages and n micro-batches over
// cost (CostRows), cold. It returns an error when the inputs are malformed or
// no memory-feasible partitioning exists.
func Solve(L, p, n int, cost CostFn) (Plan, error) {
	return SolveRows(L, p, n, CostRows(cost), nil, p-1)
}

// SolveWorkers is Solve; it remains only because the frozen bench/ calls it.
func SolveWorkers(L, p, n int, cost CostFn, _ int) (Plan, error) { return Solve(L, p, n, cost) }

// Evaluate computes the modeled iteration time of an arbitrary partitioning
// of rows' layers under the same 1F1B cost model Algorithm 1 optimizes (Eq. 3
// recurrences). bounds must have p+1 strictly increasing entries from 0 to
// the table's layer count L, the last stage's row being the range that ends
// at layer L−1; the caller checks that. It reads each stage's cell, in stage
// order, as the solvers do, and ignores rows.Bounds. It returns ok=false when
// any stage is memory-infeasible, having read no stage past it.
func Evaluate(bounds []int, n int, rows *Rows) (total, w0, e0, m0 float64, ok bool) {
	p := len(bounds) - 1
	fs := make([]float64, p)
	bs := make([]float64, p)
	for s := 0; s < p; s++ {
		i, j := bounds[s], bounds[s+1]-1
		k, _ := rows.Base(s, i)
		if s < p-1 {
			k += (j - i) * rows.Stride
		}
		c := rows.cell(k, s, i, j)
		if c.State != Feasible {
			return 0, 0, 0, 0, false
		}
		sc := rows.scale(s)
		fs[s], bs[s] = float64(c.F*sc), float64(c.B*sc)
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
