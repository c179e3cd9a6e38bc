package core

import (
	"fmt"
	"strings"
	"time"

	"adapipe/internal/obs"
)

// SearchStats counts the work of the two-level DP search: how many knapsacks
// ran, how well the §5.3 isomorphic-range cache and GCD reduction performed,
// how many DP cells each level touched, and the search wall time. The
// planner accumulates them across Plan calls (the cost cache persists), and
// each produced Plan carries a snapshot — the planner-side telemetry of the
// observability layer.
type SearchStats struct {
	// KnapsackRuns is the number of §4 recomputation DP tables actually
	// filled. One table serves every stage of a class whose budget rounds to
	// the same quantum, and a solve that short-circuits (everything fits,
	// nothing optional, no usable budget) fills none.
	KnapsackRuns int
	// KnapsackShared counts the stage strategies read out of a table beyond
	// the one per fill: KnapsackRuns + KnapsackShared is the number of
	// (stage, class) solves that needed a DP, and only the former paid for
	// one.
	KnapsackShared int
	// CacheHits counts stage-cost lookups served by the isomorphic-range
	// cache instead of a fresh solve.
	CacheHits int
	// CostEvaluations counts all stage-cost lookups (hits + misses). A
	// lookup that misses runs at most one class solve, which fills at most
	// one table, so KnapsackRuns + CacheHits <= CostEvaluations; the sibling
	// entries such a solve publishes on the side are not lookups and count
	// only when a later lookup hits them.
	CostEvaluations int
	// StoreHits counts cost-table misses served by the shared cost store
	// (a stored entry or another planner's in-flight solve) — cross-request
	// reuse the store bought this planner. StoreMisses counts the solves
	// this planner ran itself and published. Both stay zero without an
	// attached CostSource.
	StoreHits, StoreMisses int
	// KnapsackCells is the total size of the knapsack DP tables across all
	// runs (pseudo-items × capacity states of each table). It counts the
	// tables, not the work: KnapsackLiveCells is what the row passes
	// computed, the tables less their saturated tails (recompute's
	// OptimizeMany).
	KnapsackCells, KnapsackLiveCells int64
	// QuantaBeforeGCD and QuantaAfterGCD sum, over the stage strategies read
	// from a table, the knapsack capacity in rounding quanta before and after
	// the §5.3 GCD reduction; their ratio is the average capacity shrink the
	// reduction bought.
	QuantaBeforeGCD, QuantaAfterGCD int64
	// PartitionCells counts the (stage, start, end) cells Algorithm 1 (or
	// its exact variant) evaluated. Warm-started searches count only the
	// recomputed levels here; the reused levels land in WarmStartCells.
	PartitionCells int
	// ReplanIncremental counts searches served by the incremental fast
	// path: a partition DP warm-started from the previous search's memo,
	// recomputing only the levels the scale change touched.
	ReplanIncremental int
	// InvalidatedIsoClasses counts published classes whose stage-cost scale
	// changed between a warm-started search and the memo it reused — the
	// exact invalidation work the incremental replanner performed.
	InvalidatedIsoClasses int
	// WarmStartCells counts the partition-DP cost evaluations represented
	// by memo levels reused bit-for-bit instead of recomputed.
	WarmStartCells int
	// FrontierStates is the total Pareto-frontier size across cells
	// (PartitionExact only).
	FrontierStates int
	// SearchWall is the wall-clock time spent inside Plan. It is
	// deliberately excluded from plan serialization: plans must stay
	// byte-identical across runs.
	SearchWall time.Duration
}

// CacheHitRate returns the fraction of stage-cost lookups the isomorphism
// cache served, in [0, 1].
func (s SearchStats) CacheHitRate() float64 {
	if s.CostEvaluations == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CostEvaluations)
}

// StoreHitRate returns the fraction of shared-store lookups served without a
// fresh solve, in [0, 1]; 0 when no CostSource was attached.
func (s SearchStats) StoreHitRate() float64 {
	total := s.StoreHits + s.StoreMisses
	if total == 0 {
		return 0
	}
	return float64(s.StoreHits) / float64(total)
}

// GCDReduction returns the average factor by which the §5.3 GCD reduction
// shrank the knapsack capacity (1 means no reduction or no DP run).
func (s SearchStats) GCDReduction() float64 {
	if s.QuantaAfterGCD == 0 {
		return 1
	}
	return float64(s.QuantaBeforeGCD) / float64(s.QuantaAfterGCD)
}

// String renders the counters as the one-line summary Describe prints.
func (s SearchStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cost evals (%d knapsacks + %d read from a shared table, %.0f%% iso-cache hits), %d knapsack cells, GCD reduction %.1fx, %d partition cells",
		s.CostEvaluations, s.KnapsackRuns, s.KnapsackShared, 100*s.CacheHitRate(), s.KnapsackCells, s.GCDReduction(), s.PartitionCells)
	if s.FrontierStates > 0 {
		fmt.Fprintf(&b, ", %d frontier states", s.FrontierStates)
	}
	if s.ReplanIncremental > 0 {
		fmt.Fprintf(&b, ", %d incremental replans (%d classes invalidated, %d cells warm)",
			s.ReplanIncremental, s.InvalidatedIsoClasses, s.WarmStartCells)
	}
	if s.StoreHits+s.StoreMisses > 0 {
		fmt.Fprintf(&b, ", %.0f%% shared-store hits (%d of %d lookups)",
			100*s.StoreHitRate(), s.StoreHits, s.StoreHits+s.StoreMisses)
	}
	if s.SearchWall > 0 {
		fmt.Fprintf(&b, ", wall %s", s.SearchWall.Round(time.Microsecond))
	}
	return b.String()
}

// PromMetrics converts the counters into Prometheus-style gauges under the
// given name prefix.
func (s SearchStats) PromMetrics(prefix string) []obs.Metric {
	return []obs.Metric{
		{Name: prefix + "_knapsack_runs", Help: "recomputation DP tables filled", Value: float64(s.KnapsackRuns)},
		{Name: prefix + "_knapsack_shared", Help: "stage strategies read from a table another stage of the class filled", Value: float64(s.KnapsackShared)},
		{Name: prefix + "_cache_hits", Help: "stage-cost lookups served by the isomorphic-range cache", Value: float64(s.CacheHits)},
		{Name: prefix + "_cache_hit_rate", Help: "fraction of stage-cost lookups served from cache", Value: s.CacheHitRate()},
		{Name: prefix + "_cost_evaluations", Help: "total stage-cost lookups", Value: float64(s.CostEvaluations)},
		{Name: prefix + "_knapsack_cells", Help: "knapsack DP table size (items x capacity states) summed over all runs", Value: float64(s.KnapsackCells)},
		{Name: prefix + "_knapsack_live_cells", Help: "knapsack DP cells the row passes computed: the tables less their saturated tails", Value: float64(s.KnapsackLiveCells)},
		{Name: prefix + "_gcd_reduction", Help: "average knapsack capacity shrink from the GCD reduction", Value: s.GCDReduction()},
		{Name: prefix + "_partition_cells", Help: "partitioning DP cells evaluated", Value: float64(s.PartitionCells)},
		{Name: prefix + "_frontier_states", Help: "Pareto states kept (exact partitioning only)", Value: float64(s.FrontierStates)},
		{Name: prefix + "_wall_seconds", Help: "search wall-clock seconds", Value: s.SearchWall.Seconds()},
		{Name: prefix + "_replans_incremental", Help: "searches served by the warm-started incremental fast path", Value: float64(s.ReplanIncremental)},
		{Name: prefix + "_invalidated_iso_classes", Help: "iso-cache classes invalidated by stage-scale changes across warm-started searches", Value: float64(s.InvalidatedIsoClasses)},
		{Name: prefix + "_warm_start_cells", Help: "partition DP cost evaluations reused from warm-start memos", Value: float64(s.WarmStartCells)},
		{Name: prefix + "_store_hits", Help: "iso-cache misses served by the shared cost store (cross-request reuse)", Value: float64(s.StoreHits)},
		{Name: prefix + "_store_misses", Help: "shared-store lookups this planner had to solve itself", Value: float64(s.StoreMisses)},
		{Name: prefix + "_store_hit_rate", Help: "fraction of shared-store lookups served without a fresh solve", Value: s.StoreHitRate()},
	}
}
