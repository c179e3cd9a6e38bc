package core

import (
	"runtime"
	"testing"
)

// TestReplanAllocsBounded pins the allocation cost of the warm replanning
// fast path: with the memo, dense cost snapshot and knapsack solvers all
// pooled on the planner, an incremental replan must stay an order of
// magnitude below the cold search's ~3.7k allocations (TestSearchAllocsBounded).
// The two scales alternate so every run recomputes levels, not just
// reassembles.
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
	const bound = 1024 // measured ~410/op; a cold search runs ~3.7k
	if allocs > bound {
		t.Fatalf("incremental replan allocates %.0f/op, bound %d", allocs, bound)
	}
}

// TestSearchAllocsBounded pins the allocation cost of one cold serial GPT-3
// search (L=194, p=8), in objects and in bytes. What is left is the
// knapsack's own per-strategy result (its Saved map) plus one side entry per
// solved (stage, class) of the reachable domain; the bookkeeping around the
// solves allocates nothing per class or per DP cell. The object bound is the
// measured 3 656 + 25 % (6.2k before the searches stopped solving unreachable
// level-0 classes, ~20.2k before the dense table). The byte bound is the
// measured 729 KB + 25 %: the knapsack's choice matrix is packed bits, and
// with a []bool matrix (8× the bytes) the same search allocated 1.18 MB.
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
	const bound, byteBound = 4570, 912_000
	if allocs > bound {
		t.Fatalf("cold search allocates %.0f, bound %d", allocs, bound)
	}
	if bytes > byteBound {
		t.Fatalf("cold search allocates %d bytes, bound %d", bytes, byteBound)
	}
}
