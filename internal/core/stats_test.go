package core

import (
	"strings"
	"testing"
)

func TestPlanCarriesSearchStats(t *testing.T) {
	p := plan(t, RecomputeAdaptive, PartitionAdaptive)
	s := p.Search
	if s.CostEvaluations <= 0 {
		t.Fatal("no cost evaluations counted")
	}
	if s.KnapsackRuns <= 0 {
		t.Error("no knapsack runs counted")
	}
	if s.CacheHits <= 0 {
		t.Error("isomorphism cache never hit on GPT-3 (many identical ranges)")
	}
	// A lookup is a hit or a miss; a miss runs at most one class solve, which
	// fills at most one table. Sibling entries that solve publishes are not
	// lookups.
	if s.KnapsackRuns+s.CacheHits > s.CostEvaluations {
		t.Errorf("runs %d + hits %d exceed evaluations %d", s.KnapsackRuns, s.CacheHits, s.CostEvaluations)
	}
	if s.KnapsackShared <= 0 {
		t.Error("no strategy was read from a shared table on GPT-3 (stages 1..3 of a class share a quantum)")
	}
	if hr := s.CacheHitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("cache hit rate %g outside (0,1)", hr)
	}
	if s.KnapsackCells <= 0 {
		t.Error("no knapsack cells counted")
	}
	if s.PartitionCells <= 0 {
		t.Error("no partition cells counted")
	}
	if s.FrontierStates != 0 {
		t.Errorf("frontier states %d nonzero outside PartitionExact", s.FrontierStates)
	}
	if s.QuantaAfterGCD > s.QuantaBeforeGCD {
		t.Errorf("GCD reduction grew capacity: %d → %d", s.QuantaBeforeGCD, s.QuantaAfterGCD)
	}
	if s.GCDReduction() < 1 {
		t.Errorf("GCD reduction factor %g below 1", s.GCDReduction())
	}
	if s.SearchWall <= 0 {
		t.Error("search wall time not measured")
	}
	out := s.String()
	for _, frag := range []string{"cost evals", "knapsack", "partition cells", "wall"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary %q missing %q", out, frag)
		}
	}
	ms := s.PromMetrics("adapipe_search")
	if len(ms) == 0 {
		t.Fatal("no prom metrics")
	}
	for _, m := range ms {
		if !strings.HasPrefix(m.Name, "adapipe_search_") {
			t.Errorf("metric %q lacks prefix", m.Name)
		}
	}
}

func TestExactPartitionCountsFrontier(t *testing.T) {
	p := plan(t, RecomputeAdaptive, PartitionExact)
	if p.Search.FrontierStates <= 0 {
		t.Error("PartitionExact reported no frontier states")
	}
	if p.Search.PartitionCells <= 0 {
		t.Error("PartitionExact reported no partition cells")
	}
}

func TestSearchStatsZeroValues(t *testing.T) {
	var s SearchStats
	if s.CacheHitRate() != 0 {
		t.Error("zero stats should report 0 hit rate")
	}
	if s.GCDReduction() != 1 {
		t.Error("zero stats should report GCD reduction 1")
	}
}
