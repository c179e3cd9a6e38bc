package core

import (
	"math"

	"adapipe/internal/partition"
)

// The incremental replanning fast path (DESIGN §11). A straggler repricing
// changes only the per-stage scale vector; the nominal cost table stays
// valid, and the suffix partition DP only needs to recompute the levels at
// or below the highest rescaled stage. warmStart takes the previous search's
// DP memo out of the solver; the warm-started solve then reads the same table
// a cold search does, applying its scale as it goes, and a search that
// completes puts the revalidated memo back.

// warmStart is the memo a search solves into and what it may reuse of it.
type warmStart struct {
	// memo is the Algorithm 1 DP table the search fills: the previous
	// search's when ok, a fresh one for a cold Algorithm 1 search with the
	// isomorphism cache, nil otherwise.
	memo *partition.Memo
	// stale is the highest stage the search must recompute: the highest
	// stage whose scale differs from the memo's when ok (−1 when none do: the
	// solve is pure reassembly), p−1 otherwise.
	stale int
	// invalidated counts the published classes on rescaled stages.
	invalidated int
	// ok reports whether the fast path is usable for this search.
	ok bool
}

// scaleAt reads a stage-scale vector that may be nil (nominal = all ones).
func scaleAt(scale []float64, s int) float64 {
	if scale == nil {
		return 1
	}
	return scale[s]
}

// scaleChanged compares one stage's scale across two vectors. The
// comparison is bit-wise, not epsilon: the DP must recompute any level
// whose inputs are not bit-identical to the memo's, and a scale moved by
// even one ulp is exactly that.
func scaleChanged(cur, old []float64, s int) bool {
	return math.Float64bits(scaleAt(cur, s)) != math.Float64bits(scaleAt(old, s))
}

// maxStaleStage returns the highest stage whose scale differs between the
// two vectors, or −1 when none do. Levels strictly above it depend only on
// unchanged stage costs and are bit-for-bit reusable (partition.SolveRows).
func maxStaleStage(cur, old []float64, p int) int {
	stale := -1
	for s := 0; s < p; s++ {
		if scaleChanged(cur, old, s) {
			stale = s
		}
	}
	return stale
}

// warmStart takes the solver's memo for a search under scale. A search may
// warm-start from it when it is a completed DP memo (Algorithm 1 only — even
// and exact partitioning keep none and search cold). Either way the solver
// holds no memo until the search completes, so a search that fails, is
// cancelled or panics leaves the next one cold.
//
// The fast path requires the isomorphism cache, without which a search keeps
// no memo. The classes a search evaluates depend on the scale and on n, since
// the scan cut (stageSolver.rows) ends each scan where the scaled costs let it: a
// warm-started recompute may look up a class the memo-building run never
// touched, and resolves it like any miss.
func (sv *stageSolver) warmStart(scale []float64) warmStart {
	pl := sv.pl
	L := len(pl.layers)
	p := pl.strat.PP
	ws := warmStart{stale: p - 1}
	memo := sv.memo
	sv.memo = nil
	if pl.opts.DisableIsomorphism || pl.opts.Partition != PartitionAdaptive {
		return ws
	}
	if !memo.Valid(L, p, pl.n) {
		ws.memo = &partition.Memo{}
		return ws
	}
	ws.memo, ws.ok = memo, true
	ws.stale = maxStaleStage(scale, sv.memoScale, p)
	for s := 0; s <= ws.stale; s++ {
		if scaleChanged(scale, sv.memoScale, s) {
			ws.invalidated += pl.table.publishedAt(s)
		}
	}
	return ws
}

// ResetIncremental drops the planner's warm-start state — the partition DP
// memo and the scale it was computed under — so the next Plan runs the
// full cold search. Benchmarks and differential tests use it to compare
// cold and warm-started searches on one planner; production callers never
// need it (stale memos invalidate themselves).
func (pl *Planner) ResetIncremental() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.sv.memo, pl.sv.memoScale = nil, nil
}
