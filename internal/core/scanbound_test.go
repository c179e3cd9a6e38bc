package core

import (
	"fmt"
	"math"
	"testing"

	"adapipe/internal/coststore"
	"adapipe/internal/partition"
)

// TestScanBoundIsSound holds scanBound to the contract partition.BoundFn
// states, on every runner row under all four recomputation modes, nominal
// costs and every scaleVectors entry: for every scanned (s, i, j) — a stage before the last,
// a start StageStarts allows, an end that leaves a layer to each later
// stage — whose entry is feasible, the bound's forward is the entry's scaled
// Fwd bit for bit and its sum exceeds the scaled Fwd+Bwd by no more than a
// relative 2⁻³¹; along each scan the sum never falls. The entries are read
// once as the planner's own class solves publish them and once as store hits
// on a second planner over the store the first one filled.
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
	bound := pl.scanBound(scale)
	feasible, n := 0, 0
	for s := 0; s < p-1; s++ {
		lo, hi := partition.StageStarts(L, p, s)
		for i := lo; i <= hi; i++ {
			prev := math.Inf(-1)
			for j := i; j <= L-p+s; j++ {
				lf, lb := bound(s, i, j)
				if lf+lb < prev {
					t.Fatalf("stage %d from layer %d: bound falls from %g to %g at end %d", s, i, prev, lf+lb, j)
				}
				prev = lf + lb
				if n++; stride > 1 && n%stride != 0 {
					continue
				}
				idx, ok, _ := pl.sv.lookup(nil, s, i, j)
				if !ok {
					continue
				}
				feasible++
				f, b := pl.table.hot[idx].fwd, pl.table.hot[idx].bwd
				if scale != nil {
					f, b = f*scale[s], b*scale[s]
				}
				if math.Float64bits(lf) != math.Float64bits(f) || lf+lb > (f+b)*(1+0x1p-31) {
					t.Fatalf("(%d,%d,%d) under %v: bound (%g, %g), entry (%g, %g)", s, i, j, scale, lf, lb, f, b)
				}
			}
		}
	}
	return feasible
}
