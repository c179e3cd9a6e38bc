package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// tinyPlanner builds a planner over a Tiny model for differential and
// concurrency tests. decoders controls the layer-sequence length
// (2*decoders + 2), pp the stage count, n the micro-batch count.
func tinyPlanner(t testing.TB, decoders, pp, n int, reserve float64, part PartitionMode) *Planner {
	t.Helper()
	cfg := model.Tiny(decoders)
	cl := hardware.ClusterA()
	strat := parallel.Strategy{TP: 1, PP: pp, DP: 1}
	train := parallel.Config{GlobalBatch: n, MicroBatch: 1, SeqLen: 2048}
	opts := DefaultOptions()
	opts.MemoryReserve = reserve
	opts.Recompute = RecomputeAdaptive
	opts.Partition = part
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatalf("planner (L=%d p=%d): %v", 2*decoders+2, pp, err)
	}
	return pl
}

// TestPlannerConcurrent hammers one shared planner from many goroutines — the
// situation the mu lock exists for. Every Plan call must succeed and produce
// the same bytes, CostFor must agree with the plan's stage costs, and the
// whole test must be clean under -race (the `make race` gate runs it there).
func TestPlannerConcurrent(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)

	const goroutines = 8
	plans := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := pl.Plan()
			if err != nil {
				errs[g] = err
				return
			}
			// Interleave cache reads with the other goroutines' searches.
			for s := 0; s < 4; s++ {
				if _, _, ok := pl.CostFor(s, 0, 2); !ok {
					errs[g] = errTestInfeasible
					return
				}
			}
			plans[g], errs[g] = json.Marshal(p)
		}()
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if !bytes.Equal(plans[g], plans[0]) {
			t.Errorf("goroutine %d produced a different plan:\n%s\nvs\n%s", g, plans[g], plans[0])
		}
	}
	// Counters must still satisfy the accounting invariant after the storm:
	// table fills + hits never exceed lookups (a sibling entry published by
	// another search's class solve is a hit for whoever looks it up).
	if s := pl.Stats; s.KnapsackRuns+s.CacheHits > s.CostEvaluations {
		t.Errorf("stats invariant broken: runs %d + hits %d > evals %d",
			s.KnapsackRuns, s.CacheHits, s.CostEvaluations)
	}
}

// TestPlannerConcurrentWithReplanning mixes Plan calls with stage-scale
// updates: SetStageScale replaces the scale slice under the lock, and every
// concurrent Plan must see either the old or the new scale — never a torn
// state. The plans themselves differ (scales differ), so this test only
// asserts absence of errors and races.
func TestPlannerConcurrentWithReplanning(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pl.Plan(); err != nil {
				t.Error(err)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			scale := []float64{1, 1, 1, 1}
			scale[g] = 1.5
			if err := pl.SetStageScale(scale); err != nil {
				t.Error(err)
			}
			if err := pl.SetStageScale(nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// gatedSource is a slow CostSource: its first compute parks inside the source
// until release is closed, and it records how many computes were ever in
// flight at once.
type gatedSource struct {
	entered  chan struct{} // closed when the first compute is parked
	release  chan struct{}
	calls    atomic.Int32
	inFlight atomic.Int32
	peak     atomic.Int32
}

func (g *gatedSource) GetOrCompute(_ coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition) {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for {
		peak := g.peak.Load()
		if n <= peak || g.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	return compute(), coststore.Computed
}

// TestConcurrentColdSearchesOverlapSolves pins the lock story of the miss
// path: a cold search parked inside a slow cost source holds no planner
// lock. While it is parked, the planner's bookkeeping stays reachable, a
// lookup of another class solves concurrently (two computes in flight), and a
// second cold PlanContext on the same planner gets past its claim and parks
// only on the one class in flight — it shares that solve rather than
// repeating it. Once released, both searches must produce the bytes of an
// undisturbed planner. (When the planner mutex was held across GetOrCompute,
// the first probe below never returned.)
func TestConcurrentColdSearchesOverlapSolves(t *testing.T) {
	clean, err := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive).Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}

	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)
	src := &gatedSource{entered: make(chan struct{}), release: make(chan struct{})}
	if err := pl.SetCostSource(src); err != nil {
		t.Fatal(err)
	}
	plans := make([][]byte, 2)
	var wg sync.WaitGroup
	search := func(g int) {
		defer wg.Done()
		p, err := pl.PlanContext(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		if plans[g], err = json.Marshal(p); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go search(0)
	<-src.entered

	// The first search is now parked inside the source, mid-solve.
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		pl.StatsSnapshot()
		// Stage 0 of layers 0..1 is not the class the search is solving
		// (its DP starts at the last stage), so this is a second solve.
		if _, _, ok := pl.CostFor(0, 0, 1); !ok {
			t.Error(errTestInfeasible)
		}
	}()
	select {
	case <-probed:
	case <-time.After(10 * time.Second):
		t.Fatal("planner unreachable while a search is parked in its cost source: a lock is held across the solve")
	}
	if peak := src.peak.Load(); peak < 2 {
		t.Errorf("peak concurrent solves = %d, want >= 2", peak)
	}

	wg.Add(1)
	go search(1)
	close(src.release)
	wg.Wait()
	for g, got := range plans {
		if !bytes.Equal(got, want) {
			t.Errorf("search %d diverged from the undisturbed plan:\n%s\nvs\n%s", g, got, want)
		}
	}
}

var errTestInfeasible = errInfeasibleSentinel{}

type errInfeasibleSentinel struct{}

func (errInfeasibleSentinel) Error() string { return "CostFor reported infeasible" }

// TestConcurrentPlannersShareStore is the parallelism a daemon actually has:
// K requests of one cost family (they differ in global batch only), each its
// own planner on its own goroutine, over one shared cost store. Every plan
// must be the bytes its planner produces alone and cold; the store must have
// served some lookups (a stored entry or another planner's in-flight solve);
// and together the planners must fill fewer knapsack tables than K solo
// searches would. The `make race` gate runs it under the race detector.
func TestConcurrentPlannersShareStore(t *testing.T) {
	c := pressureCases[0]
	newPlanner := func(globalBatch int) *Planner {
		opts := DefaultOptions()
		opts.MemoryReserve = c.reserve
		pl, err := NewPlanner(c.model, hardware.ClusterA(), c.strat,
			parallel.Config{GlobalBatch: globalBatch, MicroBatch: 1, SeqLen: c.seq}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	const K = 6
	want := make([][]byte, K)
	soloRuns := 0
	for k := range want {
		pl := newPlanner(8 + 4*k)
		p, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if want[k], err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
		soloRuns += pl.Stats.KnapsackRuns
	}
	if soloRuns == 0 {
		t.Fatal("test setup: the solo searches filled no knapsack table")
	}

	store := coststore.New(0)
	planners := make([]*Planner, K)
	got := make([][]byte, K)
	var wg sync.WaitGroup
	for k := range planners {
		planners[k] = newPlanner(8 + 4*k)
		if err := planners[k].SetCostSource(store); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := planners[k].PlanContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if got[k], err = json.Marshal(p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	sharedRuns := 0
	for k, pl := range planners {
		if !bytes.Equal(got[k], want[k]) {
			t.Errorf("planner %d: plan over the shared store differs from its solo cold plan\n%s\nvs\n%s", k, got[k], want[k])
		}
		sharedRuns += pl.Stats.KnapsackRuns
	}
	if st := store.StatsSnapshot(); st.Hits+st.Shared == 0 {
		t.Errorf("the store served no lookup: %+v", st)
	}
	if sharedRuns >= soloRuns {
		t.Errorf("%d planners over one store filled %d knapsack tables, %d alone", K, sharedRuns, soloRuns)
	}
}
