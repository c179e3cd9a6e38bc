package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"adapipe/internal/hardware"
)

func mustPlanJSON(t testing.TB, p *Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	return b
}

// scaleVectors is the seed matrix of straggler repricings the differential
// suite drives through the incremental replanner: identity, a single
// mid-pipeline bump, a front-stage straggler, every stage at once, an
// extreme 10x degradation, and a back-to-nominal reset.
func scaleVectors(p int) [][]float64 {
	single := ones(p)
	single[(p-1)/2] = 1.25
	front := ones(p)
	front[0] = 2
	all := make([]float64, p)
	for s := range all {
		all[s] = 1.1
	}
	extreme := ones(p)
	extreme[p-1] = 10
	return [][]float64{ones(p), single, front, all, extreme, ones(p)}
}

// TestReplanIncrementalMatrix is the seed-matrix differential suite of the
// incremental replanner: over models, stage counts and partition modes, a
// warm planner replanned through a sequence of scale vectors must produce, at every step, a plan byte-identical
// (canonical Plan JSON) to a cold full search on a fresh planner under the
// same scale — while actually taking the fast path (ReplanIncremental
// advances) and never running more knapsacks than the cold search.
// PartitionExact keeps no DP memo: its replans search cold on the warm cost
// table, so its row holds byte-identity and the knapsack bound only.
func TestReplanIncrementalMatrix(t *testing.T) {
	cases := []struct {
		decoders, pp, n int
		part            PartitionMode
	}{
		{6, 4, 8, PartitionAdaptive},
		{6, 4, 8, PartitionExact},
		{10, 6, 12, PartitionAdaptive},
		{3, 7, 8, PartitionAdaptive}, // L=8: one layer per stage almost everywhere
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("dec%d_pp%d_%s", tc.decoders, tc.pp, tc.part), func(t *testing.T) {
			warm := tinyPlanner(t, tc.decoders, tc.pp, tc.n, 0.15, tc.part)
			old, err := warm.Plan()
			if err != nil {
				t.Fatal(err)
			}
			for step, scale := range scaleVectors(tc.pp) {
				before := warm.Stats
				r, err := warm.ReplanWithScale(old, scale)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				after := warm.Stats
				if got := after.ReplanIncremental - before.ReplanIncremental; got != 1 && tc.part != PartitionExact {
					t.Fatalf("step %d: fast path not taken (ReplanIncremental advanced by %d)", step, got)
				}

				cold := tinyPlanner(t, tc.decoders, tc.pp, tc.n, 0.15, tc.part)
				if err := cold.SetStageScale(scale); err != nil {
					t.Fatal(err)
				}
				coldPlan, err := cold.Plan()
				if err != nil {
					t.Fatalf("step %d cold: %v", step, err)
				}
				if got, want := mustPlanJSON(t, r.New), mustPlanJSON(t, coldPlan); !bytes.Equal(got, want) {
					t.Fatalf("step %d (scale %v): incremental plan differs from cold search:\n%s\nvs\n%s",
						step, scale, got, want)
				}
				if incr, coldRuns := after.KnapsackRuns-before.KnapsackRuns, cold.Stats.KnapsackRuns; incr > coldRuns {
					t.Fatalf("step %d: incremental replan ran %d knapsacks, cold search only %d", step, incr, coldRuns)
				}
				old = r.New
			}
			if tc.part == PartitionExact {
				return
			}
			if warm.Stats.InvalidatedIsoClasses == 0 {
				t.Error("no iso classes were ever invalidated across the scale sequence")
			}
			if warm.Stats.WarmStartCells == 0 {
				t.Error("no DP cells were ever reused across the scale sequence")
			}
		})
	}
}

// TestReplanIncrementalGPT3 pins the acceptance configuration: on the
// GPT-3 175B search space, straggler replans on a warm planner take the
// incremental path and stay byte-identical to cold full searches.
func TestReplanIncrementalGPT3(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	opts := DefaultOptions()
	warm, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	old, err := warm.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for step, scale := range [][]float64{
		func() []float64 { s := ones(strat.PP); s[2] = 1.25; return s }(),
		func() []float64 { s := ones(strat.PP); s[2] = 1.3; return s }(),
	} {
		r, err := warm.ReplanWithScale(old, scale)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.SetStageScale(scale); err != nil {
			t.Fatal(err)
		}
		coldPlan, err := cold.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustPlanJSON(t, r.New), mustPlanJSON(t, coldPlan); !bytes.Equal(got, want) {
			t.Fatalf("step %d: incremental GPT-3 replan differs from cold search", step)
		}
		old = r.New
	}
	if warm.Stats.ReplanIncremental != 2 {
		t.Fatalf("ReplanIncremental = %d, want 2", warm.Stats.ReplanIncremental)
	}
	if warm.Stats.WarmStartCells == 0 {
		t.Error("GPT-3 replans reused no DP cells")
	}
}

// TestReplanWithShapeWarmStartByteIdentity threads the differential check
// through the elastic path: after a shape replan the adopted plan must be
// byte-identical to a cold full search for the adopted strategy on the new
// cluster — whether or not the winning candidate warm-started from the old
// planner's memo (it does when it keeps the old pipeline depth).
func TestReplanWithShapeWarmStartByteIdentity(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	cl := hardware.ClusterA()
	for _, nodes := range []int{cl.Nodes, cl.Nodes / 2} {
		resized, err := cl.Resize(nodes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pl.ReplanWithShape(resized)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewPlanner(pl.cfg, resized, r.Strategy, pl.train, pl.opts)
		if err != nil {
			t.Fatal(err)
		}
		coldPlan, err := cold.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustPlanJSON(t, r.Plan), mustPlanJSON(t, coldPlan); !bytes.Equal(got, want) {
			t.Fatalf("shape replan to %d nodes differs from cold search:\n%s\nvs\n%s", nodes, got, want)
		}
		if r.Strategy.PP == pl.strat.PP && r.Planner.Stats.ReplanIncremental == 0 {
			t.Errorf("unchanged-depth winner on %d nodes did not warm-start from the seeded memo", nodes)
		}
	}
}

// TestReplanConcurrentSharedPool races concurrent Plan and ReplanWithScale
// calls on one planner against the shared solver pool and the memo
// check-out: every produced plan must be well-formed, and replans must stay
// byte-identical to what a cold planner computes for the same scale. Run
// under -race by the Makefile's filtered race target.
func TestReplanConcurrentSharedPool(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 12, 0.15, PartitionAdaptive)
	old, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	scale := ones(4)
	scale[1] = 1.5

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	news := make(chan *Plan, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		if g%2 == 0 {
			go func() {
				defer wg.Done()
				if _, err := pl.Plan(); err != nil {
					errs <- err
				}
			}()
		} else {
			go func() {
				defer wg.Done()
				r, err := pl.ReplanWithScale(old, scale)
				if err != nil {
					errs <- err
					return
				}
				news <- r.New
			}()
		}
	}
	wg.Wait()
	close(errs)
	close(news)
	for err := range errs {
		t.Fatal(err)
	}

	cold := tinyPlanner(t, 6, 4, 12, 0.15, PartitionAdaptive)
	if err := cold.SetStageScale(scale); err != nil {
		t.Fatal(err)
	}
	coldPlan, err := cold.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := mustPlanJSON(t, coldPlan)
	for p := range news {
		if !bytes.Equal(mustPlanJSON(t, p), want) {
			t.Fatal("concurrent replan differs from cold search")
		}
	}
	pl.mu.Lock()
	pooled := len(pl.solverPool)
	pl.mu.Unlock()
	if pooled == 0 {
		t.Error("no solver was parked back on the pool")
	}
}

// TestReplanAllocsBounded pins the allocation cost of the warm replanning
// fast path: with the memo, dense cost snapshot and knapsack solvers all
// pooled on the planner, an incremental replan must stay orders of magnitude
// below the cold search's ~20k allocations. The two scales alternate so every run recomputes
// levels, not just reassembles.
func TestReplanAllocsBounded(t *testing.T) {
	warm := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)
	plan, err := warm.Plan()
	if err != nil {
		t.Fatal(err)
	}
	scales := [2][]float64{
		{1, 1.25, 1, 1},
		{1, 1.35, 1, 1},
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		r, err := warm.ReplanWithScale(plan, scales[i%2])
		if err != nil {
			t.Fatal(err)
		}
		plan = r.New
		i++
	})
	t.Logf("incremental replan: %.0f allocs/op", allocs)
	const bound = 1024 // measured ~410/op; cold search runs ~20k
	if allocs > bound {
		t.Fatalf("incremental replan allocates %.0f/op, bound %d", allocs, bound)
	}
}

// TestSearchAllocsBounded pins the allocation cost of one cold serial GPT-3
// search (L=194, p=8). What is left is the knapsack's own per-strategy result
// (its Saved map) plus one side entry per solved (stage, class) of the
// reachable domain; the bookkeeping around the solves allocates nothing per
// class or per DP cell. The bound is the measured 3 656 + 25 % (6.2k before
// the searches stopped solving unreachable level-0 classes, ~20.2k before the
// dense table).
func TestSearchAllocsBounded(t *testing.T) {
	planners := make([]*Planner, 4)
	for k := range planners {
		planners[k] = gptPlannerCtx(t)
	}
	k := 0
	// AllocsPerRun calls the function once to warm up, then `runs` times.
	allocs := testing.AllocsPerRun(len(planners)-1, func() {
		if _, err := planners[k].Plan(); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("cold serial GPT-3 search: %.0f allocs", allocs)
	const bound = 4570
	if allocs > bound {
		t.Fatalf("cold search allocates %.0f, bound %d", allocs, bound)
	}
}
