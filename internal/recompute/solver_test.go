package recompute

import (
	"math"
	"slices"
	"testing"
)

// TestSolverReuseMatchesOptimize runs one Solver across a sequence of solves
// with growing and shrinking problem sizes and checks each result against a
// solve on a fresh Solver: scratch reuse must be invisible, including
// when a large solve leaves stale bytes behind for a smaller one — on each
// row-pass path.
func TestSolverReuseMatchesOptimize(t *testing.T) { onEachPath(t, testSolverReuse) }

func testSolverReuse(t *testing.T) {
	sv := NewSolver()
	cases := []struct {
		groups   []Group
		capacity int64
	}{
		{[]Group{
			{Key: "a", FwdTime: 3, Bytes: 4, Count: 7},
			{Key: "b", FwdTime: 2, Bytes: 3, Count: 5},
			{Key: "c", FwdTime: 9, Bytes: 8, Count: 2, AlwaysSaved: true},
		}, 40},
		{[]Group{
			{Key: "big", FwdTime: 1.5, Bytes: 64, Count: 31},
			{Key: "mid", FwdTime: 0.5, Bytes: 48, Count: 17},
			{Key: "sml", FwdTime: 0.1, Bytes: 16, Count: 9},
		}, 900},
		{[]Group{
			{Key: "one", FwdTime: 2, Bytes: 5, Count: 1},
		}, 3},
		{[]Group{
			{Key: "zero", FwdTime: 4, Bytes: 0, Count: 3},
			{Key: "fat", FwdTime: 1, Bytes: 1000, Count: 2},
		}, 10},
		{[]Group{
			{Key: "again", FwdTime: 3, Bytes: 4, Count: 7},
			{Key: "more", FwdTime: 2, Bytes: 3, Count: 5},
		}, 25},
	}
	for _, quantum := range []int64{1, 2} {
		opts := Options{Quantum: quantum}
		for ci, c := range cases {
			got := sv.Optimize(c.groups, c.capacity, opts)
			want := optimize(c.groups, c.capacity, opts)
			if got.Feasible != want.Feasible {
				t.Fatalf("case %d quantum=%d: feasible %v vs %v", ci, quantum, got.Feasible, want.Feasible)
			}
			if math.Abs(got.SavedTime-want.SavedTime) > 0 {
				t.Errorf("case %d quantum=%d: saved time %g vs %g", ci, quantum, got.SavedTime, want.SavedTime)
			}
			if got.SavedBytes != want.SavedBytes || got.SavedUnits != want.SavedUnits {
				t.Errorf("case %d quantum=%d: bytes/units %d/%d vs %d/%d",
					ci, quantum, got.SavedBytes, got.SavedUnits, want.SavedBytes, want.SavedUnits)
			}
			if got.DPCells != want.DPCells || got.QuantaAfterGCD != want.QuantaAfterGCD {
				t.Errorf("case %d quantum=%d: counters differ: %+v vs %+v", ci, quantum, got, want)
			}
			if !slices.Equal(got.Saved, want.Saved) {
				t.Errorf("case %d quantum=%d: saved %v, want %v", ci, quantum, got.Saved, want.Saved)
			}
		}
	}
}

// TestSolverDoesNotAllocateSteadyState pins the point of the Solver: after
// warmup, repeated solves reuse scratch instead of reallocating the DP table
// and choice matrix.
func TestSolverDoesNotAllocateSteadyState(t *testing.T) {
	groups := []Group{
		{Key: "a", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12},
		{Key: "b", FwdTime: 9e-3, Bytes: 51 << 20, Count: 12},
		{Key: "c", FwdTime: 1.2e-2, Bytes: 200 << 20, Count: 12},
		{Key: "d", FwdTime: 3e-3, Bytes: 50 << 20, Count: 12, AlwaysSaved: true},
	}
	sv := NewSolver()
	opts := Options{Quantum: 1 << 20}
	sv.Optimize(groups, 4<<30, opts) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		sv.Optimize(groups, 4<<30, opts)
	})
	// Optimize still allocates the Solution's Saved vector; the big scratch
	// must not.
	// A fresh solver allocates the full DP table + choice matrix every call.
	fresh := testing.AllocsPerRun(20, func() {
		optimize(groups, 4<<30, opts)
	})
	if allocs >= fresh {
		t.Errorf("solver reuse allocs/run %.0f, fresh %.0f — scratch not reused", allocs, fresh)
	}
}
