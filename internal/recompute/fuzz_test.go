package recompute

import (
	"math"
	"reflect"
	"testing"
)

// FuzzOptimizeAgainstBruteForce feeds arbitrary small knapsack instances to
// the production solver, on each row-pass path, and the exponential oracle,
// asserting equal optimal values and internally consistent solutions.
func FuzzOptimizeAgainstBruteForce(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint8(7), uint8(1), uint8(5), uint16(20))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint16(0))
	f.Add(uint8(250), uint8(3), uint8(9), uint8(200), uint8(50), uint8(2), uint16(300))
	f.Fuzz(func(t *testing.T, t1, s1, t2, s2, t3, s3 uint8, capacity uint16) {
		groups := []Group{
			{Key: "a", FwdTime: float64(t1%60) + 1, Bytes: int64(s1%50) + 1, Count: 3},
			{Key: "b", FwdTime: float64(t2%60) + 1, Bytes: int64(s2%50) + 1, Count: 2},
			{Key: "c", FwdTime: float64(t3%60) + 1, Bytes: int64(s3%50) + 1, Count: 2, AlwaysSaved: true},
		}
		cap := int64(capacity % 400)
		want := BruteForce(groups, cap)
		for _, p := range rowPaths { // a path the CPU lacks repeats the next narrower one
			was := setRowLevel(p)
			got := Optimize(groups, cap, Options{Exact: true})
			setRowLevel(was)
			if got.Feasible != want.Feasible {
				t.Fatalf("%s: feasibility mismatch: %v vs %v", p, got.Feasible, want.Feasible)
			}
			if !got.Feasible {
				continue
			}
			if math.Abs(got.SavedTime-want.SavedTime) > 1e-9 {
				t.Fatalf("%s: saved time %g, oracle %g", p, got.SavedTime, want.SavedTime)
			}
			if got.SavedBytes > cap {
				t.Fatalf("%s: solution uses %d bytes over capacity %d", p, got.SavedBytes, cap)
			}
		}
	})
}

// referenceOptimize is the per-call solver as it stood before the
// multi-capacity table: one prologue, one table filled to this capacity
// alone, one reconstruction. FuzzOptimizeManyVsOptimize holds OptimizeMany
// (and Optimize, now its one-capacity case) to it.
func referenceOptimize(groups []Group, capacity int64, opts Options) Solution {
	sol := Solution{Saved: make(map[string]int, len(groups))}
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = defaultQuantum
	}
	if opts.Exact {
		quantum = 1
	}
	remaining := capacity
	for _, g := range groups {
		sol.TotalUnits += g.Count
		if g.AlwaysSaved {
			remaining -= roundUp(g.Bytes, quantum) * int64(g.Count)
			sol.Saved[g.Key] = g.Count
			sol.SavedUnits += g.Count
			sol.SavedBytes += g.Bytes * int64(g.Count)
		}
	}
	if remaining < 0 {
		return Solution{Saved: sol.Saved, TotalUnits: sol.TotalUnits}
	}
	sol.Feasible = true
	var opt []Group
	for _, g := range groups {
		if g.AlwaysSaved || g.Count <= 0 {
			continue
		}
		if g.Bytes <= 0 {
			sol.Saved[g.Key] += g.Count
			sol.SavedUnits += g.Count
			sol.SavedTime += g.FwdTime * float64(g.Count)
			continue
		}
		opt = append(opt, g)
	}
	if len(opt) == 0 || remaining == 0 {
		return sol
	}
	scaled := make([]int64, len(opt))
	g := int64(0)
	var roundedTotal int64
	for i, grp := range opt {
		scaled[i] = roundUp(grp.Bytes, quantum)
		roundedTotal += scaled[i] * int64(grp.Count)
		g = gcd64(g, scaled[i])
	}
	if roundedTotal <= remaining {
		for _, grp := range opt {
			sol.Saved[grp.Key] += grp.Count
			sol.SavedUnits += grp.Count
			sol.SavedTime += grp.FwdTime * float64(grp.Count)
			sol.SavedBytes += grp.Bytes * int64(grp.Count)
		}
		return sol
	}
	if opts.DisableGCD {
		g = 1
		if !opts.Exact {
			g = quantum
		}
	}
	w := remaining / g
	if w <= 0 {
		return sol
	}
	sol.QuantaBeforeGCD = remaining / quantum
	sol.QuantaAfterGCD = w
	for i := range scaled {
		scaled[i] /= g
	}
	var items []item
	for i, grp := range opt {
		c := grp.Count
		for k := 1; c > 0; k *= 2 {
			take := k
			if take > c {
				take = c
			}
			items = append(items, item{group: i, copies: take, weight: scaled[i] * int64(take), value: grp.FwdTime * float64(take)})
			c -= take
		}
	}
	sol.DPCells = int64(len(items)) * (w + 1)
	dp := make([]float64, w+1)
	stride := w + 1
	taken := make([]bool, int64(len(items))*stride)
	for i, it := range items {
		if it.weight > w {
			continue
		}
		row := taken[int64(i)*stride : int64(i+1)*stride]
		for c := w; c >= it.weight; c-- {
			if v := dp[c-it.weight] + it.value; v > dp[c] {
				dp[c] = v
				row[c] = true
			}
		}
	}
	bestCap := int64(0)
	best := dp[0]
	for c := int64(1); c <= w; c++ {
		if dp[c] > best {
			best = dp[c]
			bestCap = c
		}
	}
	counts := make([]int, len(opt))
	for i := len(items) - 1; i >= 0; i-- {
		if taken[int64(i)*stride+bestCap] {
			counts[items[i].group] += items[i].copies
			bestCap -= items[i].weight
		}
	}
	for i, grp := range opt {
		if counts[i] == 0 {
			continue
		}
		sol.Saved[grp.Key] += counts[i]
		sol.SavedUnits += counts[i]
		sol.SavedTime += grp.FwdTime * float64(counts[i])
		sol.SavedBytes += grp.Bytes * int64(counts[i])
	}
	return sol
}

// FuzzOptimizeManyVsOptimize decodes arbitrary bytes into a group set —
// AlwaysSaved, zero-byte, zero-count and duplicate-key groups included — and a
// list of capacities that is unsorted, may repeat, and ranges from negative
// through zero to far beyond the total footprint. Every out[k] of one
// OptimizeMany call on a reused solver must deep-equal what the per-call
// reference returns for capacities[k] alone, counters included; Optimize must
// agree too; and the reported table must be the largest any one of the
// capacities needed, built once.
func FuzzOptimizeManyVsOptimize(f *testing.F) {
	f.Add([]byte{3, 9, 40, 5, 0, 4, 33, 2, 0, 7, 0, 3, 0, 250, 12, 1, 1}, []byte{200, 0, 0, 0, 255, 255, 90, 0, 200, 0, 255, 127}, uint8(0), uint8(0))
	f.Add([]byte{2, 1, 1, 1, 0, 1, 1, 0, 0}, []byte{0, 0}, uint8(1), uint8(3))
	f.Add([]byte{5, 60, 17, 7, 0, 20, 34, 6, 2, 9, 51, 3, 0, 2, 0, 4, 0, 8, 8, 0, 1}, []byte{44, 1, 10, 0, 44, 1, 0, 128, 1, 0}, uint8(2), uint8(7))
	f.Add([]byte{4, 30, 8, 7, 0, 30, 8, 7, 0, 11, 24, 2, 1, 5, 16, 1, 3}, []byte{99, 0, 30, 0, 60, 0, 9, 0}, uint8(3), uint8(15))
	sv := NewSolver()
	f.Fuzz(func(t *testing.T, shape, caps []byte, flags, quantum uint8) {
		if len(shape) == 0 {
			return
		}
		n := 1 + int(shape[0])%6
		var groups []Group
		for k := 0; k < n && 1+4*k+3 < len(shape); k++ {
			b := shape[1+4*k:]
			groups = append(groups, Group{
				// b[3]&2 makes neighbours share a key.
				Key:         string(rune('a' + (k >> (b[3] >> 1 & 1)))),
				FwdTime:     float64(b[0]%61) / 4,
				Bytes:       int64(b[1] % 52), // 0 = saved for free
				Count:       int(b[2] % 8),    // 0 = no copies
				AlwaysSaved: b[3]&1 == 1,
			})
		}
		var capacities []int64
		for k := 0; 2*k+1 < len(caps) && k < 12; k++ {
			capacities = append(capacities, int64(int16(uint16(caps[2*k])|uint16(caps[2*k+1])<<8)))
		}
		opts := Options{Exact: flags&1 == 1, DisableGCD: flags&2 == 2, Quantum: 1 + int64(quantum%24)}

		for _, p := range rowPaths { // a path the CPU lacks repeats the next narrower one
			func() {
				defer setRowLevel(setRowLevel(p))
				out := make([]Solution, len(capacities))
				cells, _ := sv.OptimizeMany(groups, capacities, opts, out)
				var wantCells int64
				for k, c := range capacities {
					want := referenceOptimize(groups, c, opts)
					if !reflect.DeepEqual(out[k], want) {
						t.Fatalf("%s: capacity %d (#%d of %v), opts %+v, groups %+v:\nOptimizeMany %+v\nreference    %+v",
							p, c, k, capacities, opts, groups, out[k], want)
					}
					if one := sv.Optimize(groups, c, opts); !reflect.DeepEqual(one, want) {
						t.Fatalf("%s: capacity %d, opts %+v, groups %+v:\nOptimize  %+v\nreference %+v", p, c, opts, groups, one, want)
					}
					wantCells = max(wantCells, want.DPCells)
				}
				if cells != wantCells {
					t.Fatalf("%s: OptimizeMany's table has %d cells, the largest single table %d", p, cells, wantCells)
				}
			}()
		}
	})
}
