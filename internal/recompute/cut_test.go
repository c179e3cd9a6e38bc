package recompute

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fullTableOptimizeMany is OptimizeMany as it stood before the saturated-tail
// cut: the table zeroed, every item's pass run over all of dp[weight..w], and
// each capacity scanning its own prefix of the last row. The cut solver is
// held to it bit for bit.
func fullTableOptimizeMany(groups []Group, capacities []int64, opts Options, out []Solution) int64 {
	out = out[:len(capacities)]
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = defaultQuantum
	}
	if opts.Exact {
		quantum = 1
	}
	var mandatory int64
	var opt []Group
	for _, g := range groups {
		switch {
		case g.AlwaysSaved:
			mandatory += roundUp(g.Bytes, quantum) * int64(g.Count)
		case g.Count > 0 && g.Bytes > 0:
			opt = append(opt, g)
		}
	}
	scaled := make([]int64, len(opt))
	g := int64(0)
	var roundedTotal int64
	for i, grp := range opt {
		scaled[i] = roundUp(grp.Bytes, quantum)
		roundedTotal += scaled[i] * int64(grp.Count)
		g = gcd64(g, scaled[i])
	}
	if opts.DisableGCD {
		g = 1
		if !opts.Exact {
			g = quantum
		}
	}
	var w int64
	for k, capacity := range capacities {
		remaining := capacity - mandatory
		out[k] = unsearched(groups, opt, remaining, roundedTotal)
		if remaining <= 0 || remaining >= roundedTotal || remaining/g == 0 {
			continue
		}
		out[k].QuantaBeforeGCD = remaining / quantum
		out[k].QuantaAfterGCD = remaining / g
		w = max(w, remaining/g)
	}
	if w == 0 {
		return 0
	}
	for i := range scaled {
		scaled[i] /= g
	}
	var items []item
	for i, grp := range opt {
		c := grp.Count
		for k := 1; c > 0; k *= 2 {
			take := min(k, c)
			items = append(items, item{group: i, copies: take, weight: scaled[i] * int64(take), value: grp.FwdTime * float64(take)})
			c -= take
		}
	}
	stride := int(w) + 1
	rowWords := (stride + 63) / 64
	dp := make([]float64, stride)
	taken := make([]uint64, len(items)*rowWords)
	for i, it := range items {
		if it.weight > w {
			continue
		}
		dst := dp[it.weight:]
		rowPass(dst, dp[:len(dst)], it.value, taken[i*rowWords:][:rowWords])
	}
	for k := range out {
		sol := &out[k]
		wk := int(sol.QuantaAfterGCD)
		if wk == 0 {
			continue
		}
		sol.DPCells = int64(len(items)) * int64(wk+1)
		bestCap := 0
		best := dp[0]
		for c := 1; c <= wk; c++ {
			if dp[c] > best {
				best = dp[c]
				bestCap = c
			}
		}
		counts := make([]int, len(opt))
		for i := len(items) - 1; i >= 0; i-- {
			c := bestCap - int(items[i].weight)
			if c >= 0 && taken[i*rowWords+c/64]>>(c%64)&1 != 0 {
				counts[items[i].group] += items[i].copies
				bestCap = c
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
	}
	return int64(len(items)) * int64(stride)
}

// checkCut runs one OptimizeMany on sv and the full-table reference and
// fails on any difference: the table size, and per capacity SavedTime by
// Float64bits (NaN and -0 included), the save counts and every counter.
func checkCut(t *testing.T, sv *Solver, groups []Group, capacities []int64, opts Options) {
	t.Helper()
	got := make([]Solution, len(capacities))
	want := make([]Solution, len(capacities))
	table, live := sv.OptimizeMany(groups, capacities, opts, got)
	if ref := fullTableOptimizeMany(groups, capacities, opts, want); table != ref || live < 0 || live > table {
		t.Fatalf("groups %+v, capacities %v, opts %+v: table %d (live %d), full table %d", groups, capacities, opts, table, live, ref)
	}
	for k := range want {
		g, w := got[k], want[k]
		if math.Float64bits(g.SavedTime) != math.Float64bits(w.SavedTime) {
			t.Fatalf("groups %+v, capacity %d of %v, opts %+v: SavedTime %v (%#x), full table %v (%#x)",
				groups, capacities[k], capacities, opts, g.SavedTime, math.Float64bits(g.SavedTime), w.SavedTime, math.Float64bits(w.SavedTime))
		}
		g.SavedTime, w.SavedTime = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("groups %+v, capacity %d of %v, opts %+v:\ncut        %+v\nfull table %+v", groups, capacities[k], capacities, opts, g, w)
		}
	}
}

// cutValues are the forward times the cut tests draw from: ties, ±0, NaN,
// ±Inf, negatives, and values below half an ulp of the sums they are added
// to, which leave the saturated value S unchanged.
var cutValues = []float64{
	1, 2, 3, 0.5, 0.25, 1.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1,
	1e-17, 5e-324, 0x1p-60, 3 + 0x1p-51,
}

// cutInstance decodes bytes into up to six groups (AlwaysSaved, zero-byte and
// zero-count ones included, forward times from cutValues) and up to eight
// capacities, unsorted and repeating, from below the mandatory units to past
// the whole footprint.
func cutInstance(shape, caps []byte) ([]Group, []int64) {
	var groups []Group
	n := 1 + int(shape[0])%6
	for k := 0; k < n && 1+4*k+3 < len(shape); k++ {
		b := shape[1+4*k:]
		groups = append(groups, Group{
			Key:         string(rune('a' + k)),
			FwdTime:     cutValues[int(b[0])%len(cutValues)],
			Bytes:       int64(b[1] % 40), // 0 = saved for free
			Count:       int(b[2] % 9),    // 0 = no copies
			AlwaysSaved: b[3]&1 == 1,
		})
	}
	var capacities []int64
	for k := 0; 2*k+1 < len(caps) && k < 8; k++ {
		capacities = append(capacities, int64(int16(uint16(caps[2*k])|uint16(caps[2*k+1])<<8))%600)
	}
	return groups, capacities
}

// FuzzCutMatchesFullTable holds the saturated-tail cut and the shared
// best-capacity scan to the full-table solver on every row-pass path, on one
// reused solver (the cut no longer clears its table, so stale cells from the
// previous instance must never be read). The seeds plant NaN, ±Inf, ±0,
// values below ulp(S)/2, items heavier than the whole table and single-item
// tables.
func FuzzCutMatchesFullTable(f *testing.F) {
	nan, pinf, ninf, negz, tiny := byte(8), byte(9), byte(10), byte(7), byte(12)
	// NaN, +Inf and -Inf among ordinary items, several capacities.
	f.Add([]byte{4, 1, 3, 5, 0, nan, 2, 3, 0, pinf, 5, 2, 0, ninf, 4, 6, 0}, []byte{30, 0, 12, 0, 60, 0, 5, 0}, uint8(0x40))
	// ±0 and values too small to move S.
	f.Add([]byte{3, 6, 3, 4, 0, negz, 2, 7, 0, tiny, 1, 8, 0}, []byte{9, 0, 14, 0, 3, 0, 40, 0}, uint8(0x40))
	f.Add([]byte{2, 13, 1, 8, 0, 14, 2, 8, 0}, []byte{7, 0, 12, 0, 20, 0}, uint8(0x40))
	// An item heavier than the table (39 > every capacity below it).
	f.Add([]byte{2, 1, 39, 1, 0, 2, 3, 5, 0}, []byte{10, 0, 38, 0, 4, 0}, uint8(0x40))
	// Single-item tables, with and without a mandatory group.
	f.Add([]byte{1, 2, 5, 1, 0}, []byte{3, 0, 4, 0, 5, 0}, uint8(0x40))
	f.Add([]byte{2, 1, 7, 1, 0, 2, 3, 1, 1}, []byte{9, 0, 12, 0}, uint8(0x40))
	// Rounded, GCD-reduced and unreduced tables.
	f.Add([]byte{3, 0, 12, 8, 0, 1, 18, 8, 0, 2, 30, 4, 0}, []byte{100, 1, 200, 0, 40, 0}, uint8(6))
	f.Add([]byte{3, 0, 12, 8, 0, 1, 18, 8, 0, 2, 30, 4, 0}, []byte{100, 1, 200, 0, 40, 0}, uint8(0x80|3))
	sv := NewSolver()
	f.Fuzz(func(t *testing.T, shape, caps []byte, flags uint8) {
		if len(shape) == 0 {
			return
		}
		groups, capacities := cutInstance(shape, caps)
		opts := Options{Quantum: 1 + int64(flags&0x3f), Exact: flags&0x40 != 0, DisableGCD: flags&0x80 != 0}
		for _, p := range rowPaths { // a path the CPU lacks repeats the next narrower one
			func() {
				defer setRowLevel(setRowLevel(p))
				checkCut(t, sv, groups, capacities, opts)
			}()
		}
	})
}

// TestCutMatchesFullTable is the fuzz target's oracle over 3000 seeded random
// instances per path, so plain go test already covers far more than the
// seeds.
func TestCutMatchesFullTable(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		sv := NewSolver()
		for range 3000 {
			shape := make([]byte, 1+4*6)
			caps := make([]byte, 2*(1+rng.Intn(8)))
			rng.Read(shape)
			for k := 0; k < len(caps); k += 2 {
				c := rng.Intn(300)
				caps[k], caps[k+1] = byte(c), byte(c>>8)
			}
			groups, capacities := cutInstance(shape, caps)
			checkCut(t, sv, groups, capacities, Options{Exact: rng.Intn(2) == 0, Quantum: 1 + int64(rng.Intn(4))})
		}
	})
}
