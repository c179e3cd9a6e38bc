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
	"fmt"
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
	// Saved maps group key to the number of copies saved (including
	// AlwaysSaved groups at full count).
	Saved map[string]int
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
	// Exact solves without quantum rounding (Quantum=1). Exponentially
	// slower on real budgets; intended for tests.
	Exact bool
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
// Solver.Optimize returns results bit-identical to the package-level Optimize
// (same iteration orders, same tie-breaking); the scratch reuse is invisible.
type Solver struct {
	dp     []float64
	taken  []uint64 // len(items) rows of ⌈(w+1)/64⌉ choice words
	order  []int    // the searched capacities, smallest table first
	items  []item
	opt    []Group
	scaled []int64
	counts []int

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

// Optimize solves the bounded knapsack for one stage. capacity is the
// per-micro-batch budget for saved intermediates: the caller subtracts the
// static consumption from device memory and divides by the in-flight
// micro-batch count p−s (§4.2 multiplies the other way; the two are
// equivalent and per-micro budgets keep the DP capacity small).
func Optimize(groups []Group, capacity int64, opts Options) Solution {
	return new(Solver).Optimize(groups, capacity, opts)
}

// Optimize is the package-level Optimize running on the solver's reused
// scratch buffers: the one-capacity case of OptimizeMany.
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
// the largest capacity that needs a search, and each capacity reads its
// best cell off one shared scan of the last row and walks the choice rows.
// out[k] is bit-identical to Optimize(groups, capacities[k], opts), including
// its DPCells and quanta counters, which describe the table that capacity
// alone would have needed. capacities need not be sorted or distinct;
// len(out) must be at least len(capacities).
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
	if opts.Exact {
		quantum = 1
	}

	// Mandatory units come off every budget first; optional groups are
	// searched, zero-size copies saved for free.
	var mandatory int64
	opt := sv.opt[:0]
	for _, g := range groups {
		switch {
		case g.AlwaysSaved:
			mandatory += roundUp(g.Bytes, quantum) * int64(g.Count)
		case g.Count > 0 && g.Bytes > 0:
			opt = append(opt, g)
		}
	}
	sv.opt = opt

	// Round sizes up conservatively, then shrink by the GCD (§5.3).
	scaled := sv.scaledBuf(len(opt))
	g := int64(0)
	var roundedTotal int64
	for i, grp := range opt {
		scaled[i] = roundUp(grp.Bytes, quantum)
		roundedTotal += scaled[i] * int64(grp.Count)
		g = gcd64(g, scaled[i])
	}
	if opts.DisableGCD {
		g = 1
		if !opts.Exact {
			g = quantum
		}
	}

	// Settle what needs no search, size the table each remaining capacity
	// needs (QuantaAfterGCD > 0 marks it as searched) and find the largest.
	var w int64
	for k, capacity := range capacities {
		remaining := capacity - mandatory
		out[k] = unsearched(groups, opt, remaining, roundedTotal)
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
	for i, grp := range opt {
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
	// prefix lies inside the kept dp[:hi]. One ascending scan over the
	// capacities in table-size order serves them all.
	scanned, bestCap, best := 1, 0, dp[0]
	for _, k := range sv.orderBuf(out) {
		sol := &out[k]
		wk := int(sol.QuantaAfterGCD)
		sol.DPCells = int64(len(items)) * int64(wk+1)
		if wk >= scanned {
			for c, v := range dp[scanned : wk+1] {
				if v > best {
					best, bestCap = v, scanned+c
				}
			}
			scanned = wk + 1
		}
		at := bestCap
		counts := sv.countsBuf(len(opt))
		for i := len(items) - 1; i >= 0; i-- {
			// Cells at or above the row's tail made the tail's choice; an
			// item heavier than at was not taken there (its pass starts at
			// its weight), nor was an item no pass ran for.
			it := &items[i]
			if at >= it.from {
				if it.take {
					counts[it.group] += it.copies
					at -= int(it.weight)
				}
			} else if c := at - int(it.weight); c >= 0 && taken[i*rowWords+c/64]>>(c%64)&1 != 0 {
				counts[it.group] += it.copies
				at = c
			}
		}
		for i, grp := range opt {
			if counts[i] == 0 {
				continue
			}
			sol.Saved[grp.Key] += counts[i]
			sol.SavedUnits += counts[i]
			sol.SavedTime += grp.FwdTime * float64(counts[i])
			sol.SavedBytes += grp.Bytes * int64(counts[i])
		}
	}
	return int64(len(items)) * int64(stride), live
}

// unsearched builds the part of a solution that needs no table: the
// mandatory units, the free zero-size copies and — when the whole rounded
// optional footprint fits in what remains of the budget — every optional copy.
// remaining is the budget left after the mandatory units (rounded up).
func unsearched(groups, opt []Group, remaining, roundedTotal int64) Solution {
	sol := Solution{Saved: make(map[string]int, len(groups))}
	for _, g := range groups {
		sol.TotalUnits += g.Count
		if g.AlwaysSaved {
			sol.Saved[g.Key] = g.Count
			sol.SavedUnits += g.Count
			sol.SavedBytes += g.Bytes * int64(g.Count)
		}
	}
	if remaining < 0 {
		return Solution{Saved: sol.Saved, TotalUnits: sol.TotalUnits}
	}
	sol.Feasible = true
	for _, g := range groups {
		if !g.AlwaysSaved && g.Count > 0 && g.Bytes <= 0 {
			sol.Saved[g.Key] += g.Count
			sol.SavedUnits += g.Count
			sol.SavedTime += g.FwdTime * float64(g.Count)
		}
	}
	if remaining >= roundedTotal {
		for _, grp := range opt {
			sol.Saved[grp.Key] += grp.Count
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

// orderBuf returns the indices of the searched solutions of out
// (QuantaAfterGCD > 0), ordered by QuantaAfterGCD — an insertion sort, as
// there are a handful and the scratch must not allocate.
func (sv *Solver) orderBuf(out []Solution) []int {
	order := sv.order[:0]
	for k := range out {
		if out[k].QuantaAfterGCD == 0 {
			continue
		}
		order = append(order, k)
		for j := len(order) - 1; j > 0 && out[order[j-1]].QuantaAfterGCD > out[k].QuantaAfterGCD; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sv.order = order
	return order
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

// countsBuf returns a zeroed int scratch slice of length n.
func (sv *Solver) countsBuf(n int) []int {
	if cap(sv.counts) < n {
		sv.counts = make([]int, n)
	}
	sv.counts = sv.counts[:n]
	clear(sv.counts)
	return sv.counts
}

// BruteForce solves the same problem by exhaustive enumeration over per-copy
// decisions. It is exponential and exists as the test oracle. Sizes are not
// rounded (exact bytes).
func BruteForce(groups []Group, capacity int64) Solution {
	sol := Solution{Saved: make(map[string]int, len(groups))}
	remaining := capacity
	var opt []Group
	for _, g := range groups {
		sol.TotalUnits += g.Count
		if g.AlwaysSaved {
			remaining -= g.Bytes * int64(g.Count)
			sol.Saved[g.Key] = g.Count
			sol.SavedUnits += g.Count
			sol.SavedBytes += g.Bytes * int64(g.Count)
			continue
		}
		for i := 0; i < g.Count; i++ {
			opt = append(opt, Group{Key: g.Key, FwdTime: g.FwdTime, Bytes: g.Bytes, Count: 1})
		}
	}
	if remaining < 0 {
		return Solution{Saved: sol.Saved, TotalUnits: sol.TotalUnits}
	}
	sol.Feasible = true
	if len(opt) > 24 {
		panic(fmt.Sprintf("recompute: BruteForce limited to 24 optional copies, got %d", len(opt)))
	}
	bestMask, bestVal := 0, -1.0
	for mask := 0; mask < 1<<len(opt); mask++ {
		var bytes int64
		var val float64
		for i, g := range opt {
			if mask&(1<<i) != 0 {
				bytes += g.Bytes
				val += g.FwdTime
			}
		}
		if bytes <= remaining && val > bestVal {
			bestVal = val
			bestMask = mask
		}
	}
	for i, g := range opt {
		if bestMask&(1<<i) != 0 {
			sol.Saved[g.Key]++
			sol.SavedUnits++
			sol.SavedTime += g.FwdTime
			sol.SavedBytes += g.Bytes
		}
	}
	return sol
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
