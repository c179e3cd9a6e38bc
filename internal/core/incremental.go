package core

import (
	"math"

	"adapipe/internal/partition"
)

// The incremental replanning fast path (DESIGN §11). A straggler repricing
// changes only the per-stage scale vector; the nominal cost table stays
// valid, and the suffix partition DP only needs to recompute the levels at
// or below the highest rescaled stage. claimWarmStart checks the previous
// search's DP memo out of the planner; the warm-started solve then reads the
// same lock-free table a cold search does, applying the claimed scale as it
// goes, and PlanContext reinstalls the revalidated memo on success.

// warmStart is everything the incremental fast path checks out of the
// planner under one lock acquisition.
type warmStart struct {
	// scale is the stage-scale snapshot this search plans under; reads of
	// it after the claim are consistent even if SetStageScale races the
	// solve (the planner replaces the slice wholesale, never in place).
	scale []float64
	// memo is the checked-out Algorithm 1 DP table; nil when the fast path
	// is not usable.
	memo *partition.Memo
	// stale is the highest stage whose scale differs from the memo's
	// (−1 when none do: the solve is pure reassembly).
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
// unchanged stage costs and are bit-for-bit reusable (partition.SolveMemo).
func maxStaleStage(cur, old []float64, p int) int {
	stale := -1
	for s := 0; s < p; s++ {
		if scaleChanged(cur, old, s) {
			stale = s
		}
	}
	return stale
}

// claimWarmStart snapshots the stage scale and, when the planner holds a
// completed DP memo (Algorithm 1 only — even and exact partitioning keep
// none and search cold), checks the memo out.
// Checking it out (leaving the field nil) serializes warm-started solves
// without holding mu across the DP: a second concurrent search finds no
// memo and runs the cold path, which is merely slower, never wrong.
//
// The fast path requires the isomorphism cache, without which a search keeps
// no memo. The classes a search evaluates depend on the scale and on n, since
// the scan cut (scanBound) ends each scan where the scaled costs let it: a
// warm-started recompute may look up a class the memo-building run never
// touched, and resolves it like any miss.
func (pl *Planner) claimWarmStart() warmStart {
	L := len(pl.layers)
	p := pl.strat.PP
	var ws warmStart
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws.scale = pl.scale
	if pl.opts.DisableIsomorphism || !pl.partMemo.Valid(L, p, pl.n) {
		return ws
	}
	ws.memo = pl.partMemo
	pl.partMemo = nil
	ws.stale = maxStaleStage(ws.scale, pl.memoScale, p)
	for s := 0; s <= ws.stale; s++ {
		if scaleChanged(ws.scale, pl.memoScale, s) {
			ws.invalidated += pl.table.publishedAt(s)
		}
	}
	ws.ok = true
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
	pl.partMemo = nil
	pl.memoScale = nil
}
