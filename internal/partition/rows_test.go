package partition

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// isoSlots is the class-code axis of the planner's isomorphism layout: four
// layer kinds, each with and without the head.
const isoSlots = 8

// randTable is a random cost table over L layers and p stages in one of the
// planner's two index layouts. iso indexes stage s's entries by class —
// length·isoSlots + 2·kind of the first layer + ends-with-the-last-layer — so
// a row steps by isoSlots, and its bounds live in a stage-free array of the
// same classes; raw gives every (s, i, j) its own entry, (s·L+i)·L+j, and
// every (i, j) its own bound, i·L+j, so a row steps by one. A cell is its
// bound plus a nonnegative excess, zero about half the time so the cut fires
// at its edge, and infeasible with probability inf/16.
type randTable struct {
	L, p   int
	iso    bool
	kind   []int
	truth  []Cell
	bounds []Bound
	// absent marks the entries a fresh view starts without; Resolve
	// publishes them.
	absent []bool
}

func newRandTable(seed int64, L, p, inf int, iso bool) *randTable {
	r := rand.New(rand.NewSource(seed))
	tab := &randTable{L: L, p: p, iso: iso, kind: make([]int, L)}
	for i := range tab.kind {
		tab.kind[i] = r.Intn(isoSlots / 2)
	}
	perStage, nb := L*L, L*L
	if iso {
		perStage, nb = (L+1)*isoSlots, (L+1)*isoSlots
	}
	// A bound grows with the range's length (iso: per class code) or its
	// end (raw: per start), by an increment of its own at each step.
	tab.bounds = make([]Bound, nb)
	for a := 0; a < nb; a++ {
		prev := Bound{}
		if iso && a >= isoSlots {
			prev = tab.bounds[a-isoSlots]
		} else if !iso && a%L > 0 {
			prev = tab.bounds[a-1]
		}
		tab.bounds[a] = Bound{F: prev.F + 0.5 + r.Float64(), B: prev.B + 0.5 + 2*r.Float64()}
	}
	tab.truth = make([]Cell, p*perStage)
	tab.absent = make([]bool, len(tab.truth))
	for s := 0; s < p; s++ {
		for a := 0; a < perStage; a++ {
			k := s*perStage + a
			bd := tab.bounds[a%nb]
			c := Cell{F: bd.F, B: bd.B, State: Feasible}
			if r.Intn(2) == 0 {
				c.F += r.Float64()
				c.B += 3 * r.Float64()
			}
			if r.Intn(16) < inf {
				c = Cell{State: Infeasible}
			}
			tab.truth[k] = c
			tab.absent[k] = r.Intn(3) == 0
		}
	}
	return tab
}

// index is the entry of layers i..j run as stage s, bound its bound.
func (tab *randTable) index(s, i, j int) int {
	if !tab.iso {
		return (s*tab.L+i)*tab.L + j
	}
	return s*(tab.L+1)*isoSlots + tab.bound(i, j)
}

func (tab *randTable) bound(i, j int) int {
	if !tab.iso {
		return i*tab.L + j
	}
	code := 2 * tab.kind[i]
	if j == tab.L-1 {
		code++
	}
	return (j-i+1)*isoSlots + code
}

// rows returns a fresh view of the table under scale, cut by its bounds or
// not. Its Resolve fails t unless the cell it is asked for is absent, and
// publishes it.
func (tab *randTable) rows(t *testing.T, scale []float64, cut bool) *Rows {
	cells := make([]Cell, len(tab.truth))
	for k, c := range tab.truth {
		if !tab.absent[k] {
			cells[k] = c
		}
	}
	r := &Rows{Cells: cells, Stride: 1, Scale: scale}
	if tab.iso {
		r.Stride = isoSlots
	}
	if cut {
		r.Bounds, r.BoundStride = tab.bounds, r.Stride
	}
	r.Base = func(s, i int) (int, int) {
		if s == tab.p-1 {
			return tab.index(s, i, tab.L-1), 0
		}
		return tab.index(s, i, i), tab.bound(i, i)
	}
	r.Resolve = func(s, i, j int) Cell {
		k := tab.index(s, i, j)
		if cells[k].State != Absent {
			t.Fatalf("Resolve(%d, %d, %d) of a published cell", s, i, j)
		}
		cells[k] = tab.truth[k]
		return cells[k]
	}
	return r
}

// cost is the table under scale as the CostFn the adapter takes: each time
// is scaled once, as the scan scales it.
func (tab *randTable) cost(scale []float64) CostFn {
	return func(s, i, j int) (float64, float64, bool) {
		c := tab.truth[tab.index(s, i, j)]
		sc := scaleOf(scale, s)
		return c.F * sc, c.B * sc, c.State == Feasible
	}
}

func scaleOf(scale []float64, s int) float64 {
	if scale == nil {
		return 1
	}
	return scale[s]
}

// staleStage is the highest stage whose scale differs between two vectors
// (nil is nominal), −1 when none does.
func staleStage(prev, scale []float64, p int) int {
	stale := -1
	for s := 0; s < p; s++ {
		if math.Float64bits(scaleOf(prev, s)) != math.Float64bits(scaleOf(scale, s)) {
			stale = s
		}
	}
	return stale
}

// sameSolve requires two runs of the one scan to agree on everything,
// effort counters included, or to fail alike.
func sameSolve(t *testing.T, what string, want Plan, wantErr error, got Plan, gotErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err=%v, want err=%v", what, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs:\n%+v\nwant\n%+v", what, got, want)
	}
}

// diffRows is the row scan's differential check on one table: under scale,
// cold, uncut, it must equal the CostFn adapter (SolveMemo) field for field;
// cut, it must give the uncut plan in no more cells; either way Algorithm 1
// must never beat BruteForce, agree with it on feasibility, and total what
// Evaluate, reading the same view, prices its plan at, bit for bit.
// Warm-started from a memo filled under prev, with only the levels up to the
// highest rescaled stage recomputed, it must give the cold plan, and uncut
// equal the adapter's warm run field for field.
func diffRows(t *testing.T, tab *randTable, n int, prev, scale []float64) {
	t.Helper()
	L, p := tab.L, tab.p
	cost := tab.cost(scale)
	brute, bruteErr := BruteForce(L, p, n, cost)
	var uncut Plan
	var uncutErr error
	for _, cut := range []bool{false, true} {
		cold, coldErr := SolveRows(L, p, n, tab.rows(t, scale, cut), nil, p-1)
		if !cut {
			uncut, uncutErr = cold, coldErr
			adapted, adaptedErr := SolveMemo(L, p, n, cost, nil, p-1)
			sameSolve(t, "cold adapter", cold, coldErr, adapted, adaptedErr)
		} else {
			sameCut(t, uncut, uncutErr, cold, coldErr)
		}
		if (coldErr == nil) != (bruteErr == nil) {
			t.Fatalf("cut=%v: feasibility disagreement: rows err=%v, BruteForce err=%v", cut, coldErr, bruteErr)
		}
		if coldErr == nil {
			const tol = 1e-9
			if cold.Total < brute.Total-tol*(1+brute.Total) {
				t.Fatalf("cut=%v: Algorithm 1's %.12g beats the oracle's %.12g", cut, cold.Total, brute.Total)
			}
			total, _, _, _, ok := Evaluate(cold.Bounds, n, tab.rows(t, scale, cut))
			if !ok || math.Float64bits(total) != math.Float64bits(cold.Total) {
				t.Fatalf("cut=%v: plan total %.17g, Evaluate %.17g (ok=%v)", cut, cold.Total, total, ok)
			}
		}

		stale := staleStage(prev, scale, p)
		memo, adaptedMemo := &Memo{}, &Memo{}
		first, firstErr := SolveRows(L, p, n, tab.rows(t, prev, cut), memo, p-1)
		if (firstErr == nil) != (coldErr == nil) {
			t.Fatalf("cut=%v: feasibility moved with the scale: err=%v under %v, err=%v under %v", cut, firstErr, prev, coldErr, scale)
		}
		warm, warmErr := SolveRows(L, p, n, tab.rows(t, scale, cut), memo, stale)
		if !cut {
			if _, err := SolveMemo(L, p, n, tab.cost(prev), adaptedMemo, p-1); (err == nil) != (firstErr == nil) {
				t.Fatalf("memo fill: adapter err=%v, rows err=%v", err, firstErr)
			}
			adaptedWarm, adaptedWarmErr := SolveMemo(L, p, n, cost, adaptedMemo, stale)
			sameSolve(t, "warm adapter", warm, warmErr, adaptedWarm, adaptedWarmErr)
		}
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("cut=%v: feasibility disagreement: warm err=%v, cold err=%v", cut, warmErr, coldErr)
		}
		if coldErr == nil && !reflect.DeepEqual(stripEffort(warm), stripEffort(cold)) {
			t.Fatalf("cut=%v: warm-started solve (stale=%d) differs from cold:\n%+v\nvs\n%+v", cut, stale, warm, cold)
		}
		if firstErr == nil && coldErr == nil && stale < p-1 && warm.WarmCells == 0 && first.DPCells > 0 {
			t.Fatalf("cut=%v: warm solve with stale=%d reused no cells", cut, stale)
		}
	}
}

// bump returns a copy of prev (nil: nominal) with stage s's scale set to v.
func bump(prev []float64, p, s int, v float64) []float64 {
	out := make([]float64, p)
	for k := range out {
		out[k] = scaleOf(prev, k)
	}
	out[s] = v
	return out
}

// TestRowScanMatchesAdaptersAndBruteForce runs diffRows over random tables
// in both index layouts, nominal and scaled, cold and warm-started from a
// memo whose top levels stay valid (stale < p−1) or not, cut and uncut.
func TestRowScanMatchesAdaptersAndBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		L := 1 + r.Intn(9)
		p := 1 + r.Intn(L)
		n := p + r.Intn(8)
		for _, iso := range []bool{true, false} {
			tab := newRandTable(r.Int63(), L, p, r.Intn(6), iso)
			st := r.Intn(p)
			scaled := bump(nil, p, r.Intn(p), 0.5+r.Float64())
			for _, c := range []struct{ prev, scale []float64 }{
				{nil, nil},                       // nominal, memo still valid: pure reassembly
				{nil, bump(nil, p, st, 1.25)},    // one stage rescaled: levels up to st recomputed
				{scaled, scaled},                 // scaled throughout
				{scaled, bump(scaled, p, st, 3)}, // scaled, then a straggler
			} {
				diffRows(t, tab, n, c.prev, c.scale)
			}
		}
	}
}
