// Package recompute solves the adaptive-recomputation problem of §4.3: given
// the computation units of one pipeline stage and a memory budget for saved
// intermediates, choose the save/recompute set that minimizes backward time.
//
// Minimizing backward time is equivalent to maximizing the total forward time
// of the *saved* units (Equation 1), a 0/1 knapsack. Transformer stages
// contain many isomorphic layers, so units arrive as groups of identical
// copies and the knapsack is bounded rather than 0/1; binary splitting keeps
// the item count logarithmic in the copy count. Following §5.3, unit sizes
// are divided by their greatest common divisor (after conservative rounding
// up to a quantum) to shrink the DP capacity.
package recompute

import (
	"sort"

	"adapipe/internal/obs"
)

// Group describes one class of identical computation units within a stage
// (e.g. "every FFNUp GEMM of the stage's 12 FFN layers").
type Group struct {
	// Key identifies the group, e.g. "Attention/FFNUp".
	Key string
	// FwdTime is Time_f(U) of one copy in seconds — the recomputation cost
	// avoided per saved copy.
	FwdTime float64
	// Bytes is Mem(U) of one copy per micro-batch.
	Bytes int64
	// Count is the number of identical copies in the stage.
	Count int
	// AlwaysSaved marks units that are saved unconditionally (§4.2:
	// Attention/FFN layer outputs); they consume budget but are not
	// searched.
	AlwaysSaved bool
}

// Solution is the result of the knapsack search.
type Solution struct {
	// Feasible is false when even maximum recomputation (only AlwaysSaved
	// units kept) exceeds the budget.
	Feasible bool
	// SavedTime is Σ Time_f over the saved optional copies — the T̃_{s,N}(M)
	// of Equation 1.
	SavedTime float64
	// SavedBytes is the per-micro-batch activation footprint of the chosen
	// strategy, including AlwaysSaved units.
	SavedBytes int64
	// Saved[g] is the number of copies of groups[g] saved (AlwaysSaved
	// groups at full count).
	Saved []int32
	// SavedUnits is the total number of saved copies.
	SavedUnits int
	// TotalUnits is the total number of copies in the stage.
	TotalUnits int
	// QuantaBeforeGCD and QuantaAfterGCD report the DP capacity in rounding
	// quanta before and after the §5.3 GCD reduction; their ratio is the
	// capacity shrink the reduction bought. Both are zero when the solve
	// short-circuited without running the DP (everything fit, nothing
	// optional, or no usable budget).
	QuantaBeforeGCD, QuantaAfterGCD int64
	// DPCells is the size of the knapsack table this capacity needs
	// (pseudo-items × capacity states) — its size, not the cells the row
	// passes compute, which the saturated-tail cut makes fewer; zero when no
	// DP ran.
	DPCells int64
}

// Options tunes the solver.
type Options struct {
	// Quantum is the conservative rounding granularity in bytes: unit
	// sizes are rounded up to a multiple before the DP, so a solution
	// never exceeds the real budget. Zero selects 1 MiB.
	Quantum int64
	// DisableGCD turns off the §5.3 GCD capacity reduction (kept for the
	// ablation benchmark).
	DisableGCD bool
}

const defaultQuantum = int64(1) << 20

// Solver runs knapsack solves with reusable scratch buffers. The DP table,
// pseudo-item list and choice-tracking matrix dominate the allocation profile
// of a full planner search (thousands of solves, each discarding megabytes of
// scratch), so callers running many solves — a planner search, a benchmark
// loop — hold one Solver per goroutine and amortize the buffers across
// solves. The zero value is ready to use. A Solver is NOT safe for concurrent
// use; give each goroutine its own.
//
// A reused Solver returns results bit-identical to a fresh one (same
// iteration orders, same tie-breaking); the scratch reuse is invisible.
type Solver struct {
	dp     []float64
	taken  []uint64 // len(items) rows of ⌈(w+1)/64⌉ choice words
	items  []item
	opt    []int // indices of the searched groups
	scaled []int64

	// Trace, when non-nil, records one obs.CatSolve span per Optimize call
	// — the deepest level of a request trace — on track 0, next to the
	// request phases. The owner of the request wires it (the planner attaches
	// the search's tracer here); the nil check lives inside Tracer.Start, so
	// an untraced solve pays a pointer test and zero allocations.
	Trace *obs.Tracer
}

// item is one 0/1 pseudo-item of the binary-split bounded knapsack, with its
// choice row's saturated tail: every cell at or above from made the same
// choice, take.
type item struct {
	group  int
	copies int
	weight int64
	value  float64
	from   int
	take   bool
}

// NewSolver returns an empty Solver (equivalent to new(Solver)).
func NewSolver() *Solver { return &Solver{} }

// Optimize solves the bounded knapsack for one stage on the solver's reused
// scratch buffers: the one-capacity case of OptimizeMany. capacity is the
// per-micro-batch budget for saved intermediates: the caller subtracts the
// static consumption from device memory and divides by the in-flight
// micro-batch count p−s (§4.2 multiplies the other way; the two are
// equivalent and per-micro budgets keep the DP capacity small).
func (sv *Solver) Optimize(groups []Group, capacity int64, opts Options) Solution {
	var out [1]Solution
	sv.OptimizeMany(groups, []int64{capacity}, opts, out[:])
	return out[0]
}

// OptimizeMany solves one group set at several capacities from a single
// knapsack table — Equation 1's T̃_{s,N}(M) read at every M of interest. The
// stages that may run one set of layers differ only in their budget, and a
// 0/1 table sized to capacity w already holds the optimum and the choice
// bits of every capacity below w: dp[c] and taken[i][c] depend only on cells
// ≤ c, never on the loop's upper bound. So the capacity-independent work
// (rounding, GCD, binary splitting) runs once, the table is built once to
// the largest capacity that needs a search, and each capacity bisects the
// last row for its best cell and walks the choice rows.
// out[k] is bit-identical to Optimize(groups, capacities[k], opts), including
// its DPCells and quanta counters, which describe the table that capacity
// alone would have needed. capacities need not be sorted or distinct;
// len(out) must be at least len(capacities). out[k].Saved is filled in place
// when it can hold len(groups) counts, else allocated.
//
// table is the size of the table (pseudo-items × capacity states), zero when
// every capacity short-circuited (infeasible, nothing optional, everything
// fits, or no usable budget). live is the number of cells the row passes
// computed: the table less the saturated tails they skip, and less the cells
// below each item's weight, which no pass touches.
func (sv *Solver) OptimizeMany(groups []Group, capacities []int64, opts Options, out []Solution) (table, live int64) {
	// The span name is a constant so traced and untraced solves allocate
	// identically.
	sp := sv.Trace.Start("knapsack", obs.CatSolve)
	defer sp.End()
	out = out[:len(capacities)]
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = defaultQuantum
	}

	// Mandatory units come off every budget first; optional groups are
	// searched, zero-size copies saved for free.
	var mandatory int64
	opt := sv.opt[:0]
	for i, g := range groups {
		switch {
		case g.AlwaysSaved:
			mandatory += roundUp(g.Bytes, quantum) * int64(g.Count)
		case g.Count > 0 && g.Bytes > 0:
			opt = append(opt, i)
		}
	}
	sv.opt = opt

	// Round sizes up conservatively, then shrink by the GCD (§5.3).
	scaled := sv.scaledBuf(len(opt))
	g := int64(0)
	var roundedTotal int64
	for i, gi := range opt {
		grp := &groups[gi]
		scaled[i] = roundUp(grp.Bytes, quantum)
		roundedTotal += scaled[i] * int64(grp.Count)
		g = gcd64(g, scaled[i])
	}
	if opts.DisableGCD {
		g = quantum
	}

	// Settle what needs no search, size the table each remaining capacity
	// needs (QuantaAfterGCD > 0 marks it as searched) and find the largest.
	var w int64
	for k, capacity := range capacities {
		remaining := capacity - mandatory
		out[k] = unsearched(groups, opt, remaining, roundedTotal, out[k].Saved)
		// Everything fits at roundedTotal and beyond, which also keeps the
		// table bounded for effectively unlimited budgets.
		if remaining <= 0 || remaining >= roundedTotal || remaining/g == 0 {
			continue
		}
		out[k].QuantaBeforeGCD = remaining / quantum
		out[k].QuantaAfterGCD = remaining / g
		w = max(w, remaining/g)
	}
	if w == 0 {
		return 0, 0
	}
	for i := range scaled {
		scaled[i] /= g
	}

	// Binary-split bounded groups into 0/1 pseudo-items.
	items := sv.items[:0]
	for i, gi := range opt {
		grp := &groups[gi]
		c := grp.Count
		for k := 1; c > 0; k *= 2 {
			take := min(k, c)
			items = append(items, item{
				group:  i,
				copies: take,
				weight: scaled[i] * int64(take),
				value:  grp.FwdTime * float64(take),
			})
			c -= take
		}
	}
	sv.items = items

	// 0/1 knapsack with choice tracking, cut at the saturated tail. Each
	// item's pass runs over two equal-length windows of one table,
	// dst = dp[weight:hi] and src = dp[:hi−weight] (rowpass.go). taken is
	// row-major, rowWords words per pseudo-item, and its bits are relative to
	// the item's weight: bit c of row i is cell weight+c.
	//
	// The cut (DESIGN §5): once the items so far weigh W in total, every cell
	// of the full table at or above W holds the same value S — no step reads
	// a cell below W for it — and only dp[0:hi], hi = min(W, w+1), is kept.
	// An item of weight wt first extends the kept prefix to hi' = min(W+wt,
	// w+1) with copies of S, then runs its pass over dp[wt:hi'] alone; above
	// hi' every cell of the full table would have made the same choice,
	// take = S+value > S, which the item records instead of its bits.
	// So taken is never cleared: the walk below reads a row's bits only
	// below its from, where the pass wrote every word.
	stride := int(w) + 1
	rowWords := (stride + 63) / 64
	dp := sv.dpBuf(stride)
	taken := sv.takenBuf(len(items) * rowWords)
	s, hi := 0.0, 0
	for i := range items {
		it := &items[i]
		top := int(min(int64(hi)+it.weight, w+1))
		fill := dp[hi:top]
		for c := range fill {
			fill[c] = s
		}
		hi = top
		it.from = hi
		if v := s + it.value; v > s {
			s, it.take = v, true
		}
		if wt := int(it.weight); wt < hi {
			dst := dp[wt:hi]
			rowPass(dst, dp[:len(dst)], it.value, taken[i*rowWords:][:rowWords])
			live += int64(len(dst))
		}
	}

	// Each searched capacity's best cell is the first maximum of its prefix
	// of the last row. A searched capacity lies below the items' total weight
	// (at or above it everything fits and nothing is searched), so the
	// prefix lies inside the kept dp[:hi], which is non-decreasing (DESIGN
	// §5): the first maximum is the first cell at least dp[wk].
	for k := range out {
		sol := &out[k]
		wk := int(sol.QuantaAfterGCD)
		if wk == 0 {
			continue
		}
		sol.DPCells = int64(len(items)) * int64(wk+1)
		top := dp[wk]
		at := sort.Search(wk, func(c int) bool { return dp[c] >= top })
		// A searched group has no count yet (unsearched fills only the
		// mandatory and free ones), so the walk counts into Saved directly.
		for i := len(items) - 1; i >= 0; i-- {
			// Cells at or above the row's tail made the tail's choice; an
			// item heavier than at was not taken there (its pass starts at
			// its weight), nor was an item no pass ran for.
			it := &items[i]
			if at >= it.from {
				if it.take {
					sol.Saved[opt[it.group]] += int32(it.copies)
					at -= int(it.weight)
				}
			} else if c := at - int(it.weight); c >= 0 && taken[i*rowWords+c/64]>>(c%64)&1 != 0 {
				sol.Saved[opt[it.group]] += int32(it.copies)
				at = c
			}
		}
		for _, gi := range opt {
			c := int(sol.Saved[gi])
			if c == 0 {
				continue
			}
			grp := &groups[gi]
			sol.SavedUnits += c
			sol.SavedTime += grp.FwdTime * float64(c)
			sol.SavedBytes += grp.Bytes * int64(c)
		}
	}
	return int64(len(items)) * int64(stride), live
}

// unsearched builds the part of a solution that needs no table: the
// mandatory units, the free zero-size copies and — when the whole rounded
// optional footprint fits in what remains of the budget — every optional copy
// (opt indexes them). remaining is the budget left after the mandatory units
// (rounded up). The counts go to saved's array when it holds len(groups).
func unsearched(groups []Group, opt []int, remaining, roundedTotal int64, saved []int32) Solution {
	if saved == nil || cap(saved) < len(groups) {
		saved = make([]int32, len(groups))
	}
	saved = saved[:len(groups)]
	clear(saved)
	sol := Solution{Saved: saved}
	for i, g := range groups {
		sol.TotalUnits += g.Count
		if g.AlwaysSaved {
			saved[i] = int32(g.Count)
			sol.SavedUnits += g.Count
			sol.SavedBytes += g.Bytes * int64(g.Count)
		}
	}
	if remaining < 0 {
		return Solution{Saved: saved, TotalUnits: sol.TotalUnits}
	}
	sol.Feasible = true
	for i, g := range groups {
		if !g.AlwaysSaved && g.Count > 0 && g.Bytes <= 0 {
			saved[i] = int32(g.Count)
			sol.SavedUnits += g.Count
			sol.SavedTime += g.FwdTime * float64(g.Count)
		}
	}
	if remaining >= roundedTotal {
		for _, gi := range opt {
			grp := &groups[gi]
			saved[gi] = int32(grp.Count)
			sol.SavedUnits += grp.Count
			sol.SavedTime += grp.FwdTime * float64(grp.Count)
			sol.SavedBytes += grp.Bytes * int64(grp.Count)
		}
	}
	return sol
}

// dpBuf returns a float64 scratch slice of length n (contents overwritten
// by the solve before they are read).
func (sv *Solver) dpBuf(n int) []float64 {
	if cap(sv.dp) < n {
		sv.dp = make([]float64, n)
	}
	sv.dp = sv.dp[:n]
	return sv.dp
}

// takenBuf returns a uint64 scratch slice of length n (contents overwritten
// by the row passes where they are read).
func (sv *Solver) takenBuf(n int) []uint64 {
	if cap(sv.taken) < n {
		sv.taken = make([]uint64, n)
	}
	sv.taken = sv.taken[:n]
	return sv.taken
}

// scaledBuf returns an int64 scratch slice of length n (contents overwritten
// by the caller).
func (sv *Solver) scaledBuf(n int) []int64 {
	if cap(sv.scaled) < n {
		sv.scaled = make([]int64, n)
	}
	sv.scaled = sv.scaled[:n]
	return sv.scaled
}

// TotalOptionalTime returns Σ Time_f over all optional copies — the maximum
// possible SavedTime.
func TotalOptionalTime(groups []Group) float64 {
	var t float64
	for _, g := range groups {
		if !g.AlwaysSaved {
			t += g.FwdTime * float64(g.Count)
		}
	}
	return t
}

// SortGroups orders groups deterministically by key (for stable output).
func SortGroups(groups []Group) {
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
}

func roundUp(v, q int64) int64 {
	if q <= 1 {
		return v
	}
	return (v + q - 1) / q * q
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
