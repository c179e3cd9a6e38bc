package core

import (
	"fmt"
	"math"
	"testing"

	"adapipe/internal/coststore"
	"adapipe/internal/partition"
)

// TestScanBoundIsSound holds the bounds of the planner's row view (rows) to
// the contract partition.Rows.Bounds states, on every runner row under all four
// recomputation modes, nominal costs and every scaleVectors entry: for every
// scanned (s, i, j) — a stage before the last, a start StageStarts allows, an
// end that leaves a layer to each later stage — whose entry is feasible, the
// bound's forward, scaled as the scan scales it, is the entry's scaled Fwd
// bit for bit and its sum exceeds the scaled Fwd+Bwd by no more than a
// relative 2⁻³¹; along each scan the sum never falls. The bound and the cell
// are read where the scan reads them, Base plus the strides, and the cell
// must be the entry lookup finds. The entries are read once as the planner's
// own class solves publish them and once as store hits on a second planner
// over the store the first one filled.
func TestScanBoundIsSound(t *testing.T) {
	modes := []RecomputeMode{RecomputeAdaptive, RecomputeLayerLevel, RecomputeFull, RecomputeNone}
	for _, shape := range shapes {
		for _, mode := range modes {
			r := shape
			r.rec = mode
			t.Run(fmt.Sprintf("%s/%s", r.name, mode), func(t *testing.T) {
				t.Parallel()
				store := coststore.New(1 << 15)
				feasible, hits := 0, 0
				for round := range 2 {
					pl := r.planner(t)
					if err := pl.SetCostSource(store); err != nil {
						t.Fatal(err)
					}
					for _, scale := range append([][]float64{nil}, scaleVectors(r.pp)...) {
						feasible += checkScanBound(t, pl, r.stride, scale)
					}
					if round == 1 {
						hits = pl.StatsSnapshot().StoreHits
					}
				}
				if feasible == 0 || hits == 0 {
					t.Fatalf("checked %d feasible entries, %d of them store hits", feasible, hits)
				}
			})
		}
	}
}

// checkScanBound checks the bound against every scanned entry of pl under
// scale (nil: nominal) — each stride-th (i, j) range when stride > 1 — and returns how many
// of the entries it checked were feasible.
func checkScanBound(t *testing.T, pl *Planner, stride int, scale []float64) int {
	t.Helper()
	L, p := pl.LayerCount(), pl.strat.PP
	rows := pl.sv.rows(nil, scale, nil)
	feasible, n := 0, 0
	for s := 0; s < p-1; s++ {
		sc := 1.0
		if scale != nil {
			sc = scale[s]
		}
		lo, hi := partition.StageStarts(L, p, s)
		for i := lo; i <= hi; i++ {
			prev := math.Inf(-1)
			k0, kb0 := rows.Base(s, i)
			for j := i; j <= L-p+s; j++ {
				bd := rows.Bounds[kb0+(j-i)*rows.BoundStride]
				lf, lb := float64(bd.F*sc), float64(bd.B*sc)
				if lf+lb < prev {
					t.Fatalf("stage %d from layer %d: bound falls from %g to %g at end %d", s, i, prev, lf+lb, j)
				}
				prev = lf + lb
				if n++; stride > 1 && n%stride != 0 {
					continue
				}
				idx, ok, _ := pl.sv.lookup(nil, s, i, j)
				if k := k0 + (j-i)*rows.Stride; k != idx {
					t.Fatalf("(%d,%d,%d): the row view reads entry %d, lookup finds %d", s, i, j, k, idx)
				}
				if !ok {
					continue
				}
				feasible++
				f, b := pl.table.hot[idx].F*sc, pl.table.hot[idx].B*sc
				if math.Float64bits(lf) != math.Float64bits(f) || lf+lb > (f+b)*(1+0x1p-31) {
					t.Fatalf("(%d,%d,%d) under %v: bound (%g, %g), entry (%g, %g)", s, i, j, scale, lf, lb, f, b)
				}
			}
		}
	}
	return feasible
}

// TestRowViewMatchesIndex walks the row view the way the scan does, Base
// plus a stride per stage end, over every reachable row of a planner with the
// isomorphism cache (stride isoKindSlots) and one without it (stride 1), and
// requires each step to land on the entry index finds and on the shape of its
// class; the last stage's row must be its one range that ends with the head.
func TestRowViewMatchesIndex(t *testing.T) {
	for _, noIso := range []bool{false, true} {
		r := shapes[2]
		r.noIso = noIso
		pl := r.planner(t)
		rows, tab := pl.sv.rows(nil, nil, nil), pl.table
		L, p := tab.L, tab.p
		for s := 0; s < p; s++ {
			lo, hi := partition.StageStarts(L, p, s)
			for i := lo; i <= hi; i++ {
				k, kb := rows.Base(s, i)
				if s == p-1 {
					if want := tab.index(s, i, L-1); k != want {
						t.Fatalf("iso=%v: last-stage row %d reads entry %d, want %d", !noIso, i, k, want)
					}
					continue
				}
				for j := i; j <= L-p+s; j, k, kb = j+1, k+rows.Stride, kb+rows.BoundStride {
					if want := tab.index(s, i, j); k != want {
						t.Fatalf("iso=%v: (%d,%d,%d) reads entry %d, want %d", !noIso, s, i, j, k, want)
					}
					if want := tab.shapeIndex(i, j); kb != want {
						t.Fatalf("iso=%v: (%d,%d,%d) reads bound %d, want shape %d", !noIso, s, i, j, kb, want)
					}
				}
			}
		}
	}
}
