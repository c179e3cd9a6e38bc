package recompute

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// optimize is one solve on a fresh Solver.
func optimize(groups []Group, capacity int64, opts Options) Solution {
	return new(Solver).Optimize(groups, capacity, opts)
}

// BruteForce solves the same problem by exhaustive enumeration over per-copy
// decisions. It is exponential and exists as the test oracle. Sizes are not
// rounded (exact bytes).
func BruteForce(groups []Group, capacity int64) Solution {
	sol := Solution{Saved: make([]int32, len(groups))}
	remaining := capacity
	var opt []int // one group index per optional copy
	for i, g := range groups {
		sol.TotalUnits += g.Count
		if g.AlwaysSaved {
			remaining -= g.Bytes * int64(g.Count)
			sol.Saved[i] = int32(g.Count)
			sol.SavedUnits += g.Count
			sol.SavedBytes += g.Bytes * int64(g.Count)
			continue
		}
		for range g.Count {
			opt = append(opt, i)
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
		for i, gi := range opt {
			if mask&(1<<i) != 0 {
				bytes += groups[gi].Bytes
				val += groups[gi].FwdTime
			}
		}
		if bytes <= remaining && val > bestVal {
			bestVal = val
			bestMask = mask
		}
	}
	for i, gi := range opt {
		if g := &groups[gi]; bestMask&(1<<i) != 0 {
			sol.Saved[gi]++
			sol.SavedUnits++
			sol.SavedTime += g.FwdTime
			sol.SavedBytes += g.Bytes
		}
	}
	return sol
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	groups := []Group{
		{Key: "a", FwdTime: 3, Bytes: 4, Count: 2},
		{Key: "b", FwdTime: 5, Bytes: 7, Count: 1},
		{Key: "c", FwdTime: 2, Bytes: 3, Count: 3},
		{Key: "out", FwdTime: 1, Bytes: 2, Count: 2, AlwaysSaved: true},
	}
	for _, capacity := range []int64{0, 4, 5, 10, 15, 25, 100} {
		got := optimize(groups, capacity, Options{Quantum: 1})
		want := BruteForce(groups, capacity)
		if got.Feasible != want.Feasible {
			t.Fatalf("cap %d: feasible %v vs brute %v", capacity, got.Feasible, want.Feasible)
		}
		if !approxEq(got.SavedTime, want.SavedTime) {
			t.Errorf("cap %d: saved time %g, brute force %g", capacity, got.SavedTime, want.SavedTime)
		}
	}
}

func TestOptimizeBruteForceProperty(t *testing.T) {
	f := func(times [4]uint8, sizes [4]uint8, counts [4]uint8, cap16 uint16) bool {
		var groups []Group
		keys := []string{"a", "b", "c", "d"}
		total := 0
		for i := range times {
			c := int(counts[i]%3) + 1
			if total+c > 10 {
				c = 1
			}
			total += c
			groups = append(groups, Group{
				Key:     keys[i],
				FwdTime: float64(times[i]%50) + 1,
				Bytes:   int64(sizes[i]%40) + 1,
				Count:   c,
			})
		}
		capacity := int64(cap16 % 200)
		got := optimize(groups, capacity, Options{Quantum: 1})
		want := BruteForce(groups, capacity)
		return got.Feasible == want.Feasible && approxEq(got.SavedTime, want.SavedTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolutionInternalConsistency(t *testing.T) {
	f := func(times [3]uint8, sizes [3]uint8, cap16 uint16) bool {
		groups := []Group{
			{Key: "x", FwdTime: float64(times[0]) + 1, Bytes: int64(sizes[0]) + 1, Count: 4},
			{Key: "y", FwdTime: float64(times[1]) + 1, Bytes: int64(sizes[1]) + 1, Count: 3},
			{Key: "z", FwdTime: float64(times[2]) + 1, Bytes: int64(sizes[2]) + 1, Count: 2, AlwaysSaved: true},
		}
		capacity := int64(cap16%2000) + 2*(int64(sizes[2])+1)
		sol := optimize(groups, capacity, Options{Quantum: 1})
		if !sol.Feasible {
			return true
		}
		// Reconstruct totals from the Saved vector.
		var bytes int64
		var time float64
		units := 0
		for i, g := range groups {
			c := int(sol.Saved[i])
			if c < 0 || c > g.Count {
				return false
			}
			units += c
			bytes += g.Bytes * int64(c)
			if !g.AlwaysSaved {
				time += g.FwdTime * float64(c)
			}
		}
		return units == sol.SavedUnits && bytes == sol.SavedBytes &&
			approxEq(time, sol.SavedTime) && sol.SavedBytes <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlwaysSavedOverflow(t *testing.T) {
	groups := []Group{
		{Key: "big", FwdTime: 1, Bytes: 100, Count: 2, AlwaysSaved: true},
		{Key: "opt", FwdTime: 1, Bytes: 1, Count: 1},
	}
	sol := optimize(groups, 150, Options{Quantum: 1})
	if sol.Feasible {
		t.Fatal("mandatory units exceed capacity but solution is feasible")
	}
	if sol.TotalUnits != 3 {
		t.Errorf("total units = %d, want 3", sol.TotalUnits)
	}
}

func TestZeroByteUnitsSavedFree(t *testing.T) {
	groups := []Group{
		{Key: "free", FwdTime: 10, Bytes: 0, Count: 5},
		{Key: "paid", FwdTime: 1, Bytes: 10, Count: 1},
	}
	sol := optimize(groups, 0, Options{Quantum: 1})
	if !sol.Feasible {
		t.Fatal("infeasible")
	}
	if sol.Saved[0] != 5 || sol.SavedTime != 50 {
		t.Errorf("zero-byte units not saved for free: %+v", sol)
	}
	if sol.Saved[1] != 0 {
		t.Error("paid unit saved with zero budget")
	}
}

func TestMonotoneInCapacity(t *testing.T) {
	groups := []Group{
		{Key: "a", FwdTime: 3, Bytes: 5, Count: 6},
		{Key: "b", FwdTime: 7, Bytes: 11, Count: 4},
		{Key: "c", FwdTime: 2, Bytes: 2, Count: 8},
	}
	prev := -1.0
	for capacity := int64(0); capacity <= 120; capacity += 3 {
		sol := optimize(groups, capacity, Options{Quantum: 1})
		if sol.SavedTime < prev {
			t.Fatalf("capacity %d: saved time %g dropped below %g", capacity, sol.SavedTime, prev)
		}
		prev = sol.SavedTime
	}
	// Unlimited capacity saves everything.
	sol := optimize(groups, 1<<40, Options{Quantum: 1})
	if sol.SavedTime != TotalOptionalTime(groups) {
		t.Errorf("unlimited capacity saved %g, want %g", sol.SavedTime, TotalOptionalTime(groups))
	}
}

func TestGCDReductionLossless(t *testing.T) {
	// Sizes sharing a large GCD must give identical results with the
	// reduction on and off (§5.3: the reduction is exact).
	groups := []Group{
		{Key: "a", FwdTime: 3, Bytes: 4 << 20, Count: 5},
		{Key: "b", FwdTime: 9, Bytes: 12 << 20, Count: 3},
		{Key: "c", FwdTime: 4, Bytes: 8 << 20, Count: 4},
	}
	for _, capacity := range []int64{10 << 20, 33 << 20, 100 << 20} {
		on := optimize(groups, capacity, Options{Quantum: 1 << 20})
		off := optimize(groups, capacity, Options{Quantum: 1 << 20, DisableGCD: true})
		if !approxEq(on.SavedTime, off.SavedTime) {
			t.Errorf("cap %d: GCD on %g vs off %g", capacity, on.SavedTime, off.SavedTime)
		}
	}
}

func TestQuantumRoundingIsConservative(t *testing.T) {
	// With rounding, the chosen set must still fit when sizes are rounded
	// up — i.e. the *rounded* footprint respects capacity, so the true
	// footprint always does.
	f := func(sz [3]uint16, cap32 uint32) bool {
		groups := []Group{
			{Key: "a", FwdTime: 2, Bytes: int64(sz[0]) + 1, Count: 7},
			{Key: "b", FwdTime: 3, Bytes: int64(sz[1]) + 1, Count: 5},
			{Key: "c", FwdTime: 5, Bytes: int64(sz[2]) + 1, Count: 3},
		}
		capacity := int64(cap32 % 100000)
		const q = 128
		sol := optimize(groups, capacity, Options{Quantum: q})
		if !sol.Feasible {
			return true
		}
		var rounded int64
		for i, g := range groups {
			r := (g.Bytes + q - 1) / q * q
			rounded += r * int64(sol.Saved[i])
		}
		return rounded <= capacity && sol.SavedBytes <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantumNeverBeatsExact(t *testing.T) {
	groups := []Group{
		{Key: "a", FwdTime: 2, Bytes: 100, Count: 7},
		{Key: "b", FwdTime: 3, Bytes: 130, Count: 5},
		{Key: "c", FwdTime: 5, Bytes: 260, Count: 3},
	}
	for _, capacity := range []int64{500, 1000, 2000} {
		exact := optimize(groups, capacity, Options{Quantum: 1})
		rounded := optimize(groups, capacity, Options{Quantum: 128})
		if rounded.SavedTime > exact.SavedTime+1e-9 {
			t.Errorf("cap %d: rounded %g beats exact %g", capacity, rounded.SavedTime, exact.SavedTime)
		}
	}
}

func TestBruteForcePanicsOnLargeInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BruteForce accepted 25 optional copies")
		}
	}()
	BruteForce([]Group{{Key: "a", FwdTime: 1, Bytes: 1, Count: 25}}, 100)
}

func TestSortGroups(t *testing.T) {
	gs := []Group{{Key: "b"}, {Key: "a"}, {Key: "c"}}
	SortGroups(gs)
	if gs[0].Key != "a" || gs[1].Key != "b" || gs[2].Key != "c" {
		t.Errorf("not sorted: %v", gs)
	}
}

func TestTotalOptionalTime(t *testing.T) {
	gs := []Group{
		{Key: "a", FwdTime: 2, Count: 3},
		{Key: "b", FwdTime: 5, Count: 1, AlwaysSaved: true},
	}
	if got := TotalOptionalTime(gs); got != 6 {
		t.Errorf("TotalOptionalTime = %g, want 6", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	sol := optimize(nil, 100, Options{})
	if !sol.Feasible || sol.SavedUnits != 0 {
		t.Errorf("empty input: %+v", sol)
	}
	sol = optimize([]Group{{Key: "a", FwdTime: 1, Bytes: 5, Count: 0}}, 100, Options{})
	if !sol.Feasible || sol.SavedUnits != 0 {
		t.Errorf("zero-count group: %+v", sol)
	}
	// Negative capacity with nothing mandatory is infeasible.
	sol = optimize([]Group{{Key: "a", FwdTime: 1, Bytes: 5, Count: 1}}, -1, Options{})
	if sol.Feasible {
		t.Error("negative capacity feasible")
	}
}

func TestSolutionCountsSearchEffort(t *testing.T) {
	groups := []Group{
		{Key: "a", FwdTime: 3, Bytes: 4096, Count: 4},
		{Key: "b", FwdTime: 5, Bytes: 8192, Count: 2},
	}
	// Capacity below the total footprint forces the DP to run.
	sol := optimize(groups, 3*4096, Options{Quantum: 4096})
	if !sol.Feasible {
		t.Fatal("infeasible")
	}
	if sol.DPCells <= 0 {
		t.Error("DP ran but DPCells is zero")
	}
	if sol.QuantaBeforeGCD <= 0 || sol.QuantaAfterGCD <= 0 {
		t.Errorf("quanta not counted: before %d, after %d", sol.QuantaBeforeGCD, sol.QuantaAfterGCD)
	}
	if sol.QuantaAfterGCD > sol.QuantaBeforeGCD {
		t.Errorf("GCD reduction grew capacity: %d -> %d", sol.QuantaBeforeGCD, sol.QuantaAfterGCD)
	}

	// Short-circuit paths report no DP work: everything fits.
	sol = optimize(groups, 1<<40, Options{Quantum: 4096})
	if !sol.Feasible {
		t.Fatal("infeasible at huge capacity")
	}
	if sol.DPCells != 0 || sol.QuantaBeforeGCD != 0 || sol.QuantaAfterGCD != 0 {
		t.Errorf("short-circuited solve reported DP effort: %+v", sol)
	}
}
