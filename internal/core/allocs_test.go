package core

import (
	"runtime"
	"testing"

	"adapipe/internal/coststore"
	"adapipe/internal/partition"
	"adapipe/internal/schedule"
	"adapipe/internal/sim"
)

// TestReplanAllocsBounded pins the allocation cost of the warm replanning
// fast path: with the memo, dense cost snapshot and knapsack solvers all
// pooled on the planner, an incremental replan solves nothing and allocates
// only its two plans (each stage's own strategy map), the one 1F1B schedule
// both are simulated on, their simulations and the recomputed DP levels. The
// two scales alternate so every run recomputes levels, not just reassembles.
// The bound is the measured 84 + 25 % (396 while every op of a schedule had
// its own micro-id slice, the simulator nested slices per stage and micro,
// and each replan built its schedule twice).
func TestReplanAllocsBounded(t *testing.T) {
	warm := roomy.planner(t)
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
	const bound = 105
	if allocs > bound {
		t.Fatalf("incremental replan allocates %.0f/op, bound %d", allocs, bound)
	}
}

// TestSimulateAllocsFlat pins sim.Run on the GPT-3 plan's 1F1B schedule:
// its state is a few flat slices sized once, so the objects one simulation
// allocates do not grow with the micro-batch count.
func TestSimulateAllocsFlat(t *testing.T) {
	plan, err := gpt3.planner(t).Plan()
	if err != nil {
		t.Fatal(err)
	}
	costs := plan.StageCosts()
	var allocs []float64
	for _, n := range []int{plan.MicroBatches, 4 * plan.MicroBatches} {
		sched, err := schedule.OneFOneB(len(costs), n)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(sim.Input{Sched: sched, Stages: costs}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("sim.Run on the GPT-3 1F1B plan: %.0f allocs at n=%d, %.0f at n=%d",
		allocs[0], plan.MicroBatches, allocs[1], 4*plan.MicroBatches)
	if allocs[0] != allocs[1] || allocs[1] > 16 {
		t.Fatalf("sim.Run allocates %.0f then %.0f objects as n grows 4x, want one count of at most 16", allocs[0], allocs[1])
	}
}

// TestSearchAllocsBounded pins the allocation cost of one cold serial GPT-3
// search (L=194, p=8), in objects and in bytes. A class solve allocates
// nothing of its own (TestClassSolveAllocatesNothing): its strategy vectors
// and published entries come out of chunks, so what is left is the
// planner's tables, the solver's scratch, the chunks and the plan. The
// object bound is the measured 115 + 25 % (3.6k while every strategy was a
// map with a heap side entry, 6.2k before the searches stopped solving
// unreachable level-0 classes, ~20.2k before the dense table). The byte bound
// is the measured 464 KB + 25 % (726 KB with the maps); the knapsack's choice
// matrix is packed bits, and with a []bool matrix (8× the bytes) the same
// search allocated 1.18 MB.
func TestSearchAllocsBounded(t *testing.T) {
	planners := make([]*Planner, 5)
	for k := range planners {
		planners[k] = gpt3.planner(t)
	}
	k := 0
	search := func() {
		if _, err := planners[k].Plan(); err != nil {
			t.Fatal(err)
		}
		k++
	}
	// AllocsPerRun calls the function once to warm up, then `runs` times.
	allocs := testing.AllocsPerRun(len(planners)-2, search)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	search()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold serial GPT-3 search: %.0f allocs, %d bytes", allocs, bytes)
	const bound, byteBound = 144, 580_000
	if allocs > bound {
		t.Fatalf("cold search allocates %.0f, bound %d", allocs, bound)
	}
	if bytes > byteBound {
		t.Fatalf("cold search allocates %d bytes, bound %d", bytes, byteBound)
	}
}

// passSource is a cost source that computes every key itself, so a solve
// through it runs the store path of solveClass without a store's own memo.
type passSource struct{}

func (passSource) GetOrCompute(_ coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition) {
	return compute(), coststore.Computed
}

// TestClassSolveAllocatesNothing pins the steady state of a class solve on
// the planner's solver: the knapsack, its strategies and the published entries
// reuse the solver's scratch or come out of its chunks, which refill far less
// than once per solve, so AllocsPerRun (whole allocations per run) is 0 —
// with no cost source and through one. Each run re-solves a class that fills
// a knapsack table, its entries reset to absent first.
func TestClassSolveAllocatesNothing(t *testing.T) {
	pl := shapes[0].planner(t)
	family, err := pl.familyFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	tab, sv := pl.table, &pl.sv
	for _, src := range []CostSource{nil, passSource{}} {
		sv.src, sv.family, pl.stats = src, family, SearchStats{}
		s, i, j, perMicro := -1, 0, 0, int64(0)
		solve := func() {
			for k := range tab.hot {
				tab.hot[k].State = partition.Absent
			}
			sv.solveClass(s, i, j, perMicro)
		}
		// The first class of stage 0 whose solve fills a table.
		for j = 0; j < pl.LayerCount() && sv.st.KnapsackRuns == 0; j++ {
			if pm, fits := pl.microBudget(0, 0, j); fits && tab.reachable(0, 0, j) {
				s, perMicro = 0, pm
				solve()
			}
		}
		if sv.st.KnapsackRuns == 0 {
			t.Fatal("no class of stage 0 fills a knapsack table")
		}
		j--
		if allocs := testing.AllocsPerRun(200, solve); allocs != 0 {
			t.Fatalf("source %T: a class solve of layers 0..%d allocates %.0f/op, want 0", src, j, allocs)
		}
	}
}
