package partition

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// BruteForce enumerates every partitioning of L layers into p non-empty
// contiguous stages, evaluates each with Evaluate, and returns the best. It
// is the test oracle; exponential in p.
func BruteForce(L, p, n int, cost CostFn) (Plan, error) {
	if err := check(L, p, n); err != nil {
		return Plan{}, err
	}
	rows := CostRows(cost)
	bounds := make([]int, p+1)
	bounds[0], bounds[p] = 0, L
	best := Plan{Total: math.Inf(1)}
	var rec func(stage int)
	rec = func(stage int) {
		if stage == p-1 {
			// The last stage takes everything that remains.
			total, w, e, m, ok := Evaluate(bounds, n, rows)
			if ok && total < best.Total {
				best = Plan{Bounds: append([]int(nil), bounds...), Total: total, W: w, E: e, M: m}
			}
			return
		}
		// Stage `stage` starts at bounds[stage]; choose its end, leaving
		// at least one layer per remaining stage.
		for end := bounds[stage] + 1; end <= L-(p-stage-1); end++ {
			bounds[stage+1] = end
			rec(stage + 1)
		}
	}
	rec(0)
	if math.IsInf(best.Total, 1) {
		return Plan{}, fmt.Errorf("partition: brute force found no feasible partitioning")
	}
	return best, nil
}

// uniformCost builds a CostFn with identical per-layer costs.
func uniformCost(f, b float64) CostFn {
	return func(s, i, j int) (float64, float64, bool) {
		n := float64(j - i + 1)
		return n * f, n * b, true
	}
}

// tableCost builds a CostFn from per-layer forward/backward arrays with an
// optional per-stage feasibility predicate.
func tableCost(f, b []float64, ok func(s, i, j int) bool) CostFn {
	return func(s, i, j int) (float64, float64, bool) {
		if ok != nil && !ok(s, i, j) {
			return 0, 0, false
		}
		var tf, tb float64
		for k := i; k <= j; k++ {
			tf += f[k]
			tb += b[k]
		}
		return tf, tb, true
	}
}

func TestSolveUniformMatchesClosedForm(t *testing.T) {
	// With uniform layers, L divisible by p, the even split is optimal and
	// the total is W + E + (n−p)·M with the textbook 1F1B phase values.
	const L, p, n = 12, 4, 16
	cost := uniformCost(1, 2)
	plan, err := Solve(L, p, n, cost)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p; s++ {
		lo, hi := plan.Bounds[s], plan.Bounds[s+1]
		if hi-lo != L/p {
			t.Errorf("stage %d has %d layers, want %d", s, hi-lo, L/p)
		}
	}
	// F = 3, B = 6 per stage; the uniform 1F1B makespan is (n+p−1)(F+B).
	wantTotal := float64(n+p-1) * 9
	if math.Abs(plan.Total-wantTotal) > 1e-9 {
		t.Errorf("total = %g, want %g", plan.Total, wantTotal)
	}
}

func TestSolveMatchesBruteForceUniform(t *testing.T) {
	for _, tc := range []struct{ L, p, n int }{{6, 2, 4}, {8, 3, 6}, {9, 4, 8}, {5, 5, 5}} {
		cost := uniformCost(1, 2)
		got, err := Solve(tc.L, tc.p, tc.n, cost)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(tc.L, tc.p, tc.n, cost)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Total-want.Total) > 1e-9 {
			t.Errorf("L=%d p=%d n=%d: Solve %g, brute force %g", tc.L, tc.p, tc.n, got.Total, want.Total)
		}
	}
}

// sameBits reports whether two times are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestSolveConsistentWithEvaluate(t *testing.T) {
	// Algorithm 1's reported total must equal re-evaluating its chosen
	// bounds under the same cost model.
	f := []float64{1, 3, 2, 5, 1, 2, 4, 1, 2, 3}
	b := []float64{2, 5, 4, 9, 3, 4, 7, 2, 5, 6}
	cost := tableCost(f, b, nil)
	plan, err := Solve(len(f), 3, 8, cost)
	if err != nil {
		t.Fatal(err)
	}
	total, w, e, m, ok := Evaluate(plan.Bounds, 8, CostRows(cost))
	if !ok {
		t.Fatal("chosen bounds infeasible under Evaluate")
	}
	// Both run the same recurrences in the same float operations.
	if !sameBits(total, plan.Total) || !sameBits(w, plan.W) || !sameBits(e, plan.E) || !sameBits(m, plan.M) {
		t.Errorf("Solve (%.17g,%.17g,%.17g,%.17g) != Evaluate (%.17g,%.17g,%.17g,%.17g)",
			plan.Total, plan.W, plan.E, plan.M, total, w, e, m)
	}
}

func TestSolveNeverBeatsBruteForce(t *testing.T) {
	// Algorithm 1 produces a valid plan, so it can never be better than
	// exhaustive search; the paper calls it near-optimal, so allow a gap.
	f := func(fs [7]uint8, bs [7]uint8, pn uint8) bool {
		L := 7
		p := 2 + int(pn%3)
		n := p + 3
		fcost := make([]float64, L)
		bcost := make([]float64, L)
		for i := 0; i < L; i++ {
			fcost[i] = float64(fs[i]%9) + 1
			bcost[i] = fcost[i] + float64(bs[i]%9)
		}
		cost := tableCost(fcost, bcost, nil)
		got, err1 := Solve(L, p, n, cost)
		want, err2 := BruteForce(L, p, n, cost)
		if err1 != nil || err2 != nil {
			return false
		}
		return got.Total >= want.Total-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolveHandlesInfeasibleRanges(t *testing.T) {
	f := []float64{1, 1, 1, 1, 1, 1}
	b := []float64{2, 2, 2, 2, 2, 2}
	// Stage 0 cannot hold more than 2 layers (memory pressure grows with
	// in-flight micro-batches).
	ok := func(s, i, j int) bool {
		if s == 0 {
			return j-i+1 <= 2
		}
		return true
	}
	plan, err := Solve(len(f), 2, 4, tableCost(f, b, ok))
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := plan.Bounds[0], plan.Bounds[1]; hi-lo > 2 {
		t.Errorf("stage 0 got %d layers despite the memory bound", hi-lo)
	}
}

func TestSolveReportsGlobalInfeasibility(t *testing.T) {
	cost := func(s, i, j int) (float64, float64, bool) { return 0, 0, false }
	if _, err := Solve(6, 2, 4, cost); err == nil {
		t.Error("globally infeasible input accepted")
	}
	if _, err := BruteForce(6, 2, 4, cost); err == nil {
		t.Error("brute force accepted globally infeasible input")
	}
}

func TestSolveRebalancesSkewedBackward(t *testing.T) {
	// Stage 0 is much slower per layer (heavy recomputation): the
	// partitioner should assign it fewer layers than the even split.
	const L, p, n = 12, 2, 8
	cost := func(s, i, j int) (float64, float64, bool) {
		layers := float64(j - i + 1)
		if s == 0 {
			return layers, 3 * layers, true
		}
		return layers, 1.5 * layers, true
	}
	plan, err := Solve(L, p, n, cost)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := plan.Bounds[0], plan.Bounds[1]; hi-lo >= L/p {
		t.Errorf("stage 0 kept %d layers, want fewer than the even %d", hi-lo, L/p)
	}
	// And it must beat the even split.
	evenTotal, _, _, _, ok := Evaluate(Even(L, p), n, CostRows(cost))
	if !ok {
		t.Fatal("even split infeasible")
	}
	if plan.Total > evenTotal+1e-9 {
		t.Errorf("adaptive total %g worse than even %g", plan.Total, evenTotal)
	}
}

func TestEvaluateRejectsInfeasible(t *testing.T) {
	cost := func(s, i, j int) (float64, float64, bool) { return 1, 1, s != 1 }
	if _, _, _, _, ok := Evaluate([]int{0, 2, 4, 6}, 6, CostRows(cost)); ok {
		t.Error("Evaluate accepted infeasible stage")
	}
}

func TestEvenBounds(t *testing.T) {
	cases := []struct {
		L, p int
		want []int
	}{
		{12, 4, []int{0, 3, 6, 9, 12}},
		{10, 4, []int{0, 2, 4, 7, 10}}, // remainder goes to trailing stages
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
		{7, 1, []int{0, 7}},
	}
	for _, tc := range cases {
		got := Even(tc.L, tc.p)
		if len(got) != len(tc.want) {
			t.Fatalf("Even(%d,%d) = %v", tc.L, tc.p, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Even(%d,%d) = %v, want %v", tc.L, tc.p, got, tc.want)
				break
			}
		}
	}
}

func TestEvenBoundsProperty(t *testing.T) {
	f := func(l, p uint8) bool {
		L := int(l%40) + 1
		P := int(p%8) + 1
		if P > L {
			P = L
		}
		bounds := Even(L, P)
		if bounds[0] != 0 || bounds[P] != L {
			return false
		}
		for s := 0; s < P; s++ {
			size := bounds[s+1] - bounds[s]
			if size < L/P || size > L/P+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInputValidation(t *testing.T) {
	cost := uniformCost(1, 2)
	cases := []struct{ L, p, n int }{
		{0, 1, 1}, {4, 0, 4}, {4, 5, 8}, {4, 2, 1},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.L, tc.p, tc.n, cost); err == nil {
			t.Errorf("Solve(%d,%d,%d) accepted", tc.L, tc.p, tc.n)
		}
		if _, err := BruteForce(tc.L, tc.p, tc.n, cost); err == nil {
			t.Errorf("BruteForce(%d,%d,%d) accepted", tc.L, tc.p, tc.n)
		}
	}
}

func TestSingleStage(t *testing.T) {
	cost := uniformCost(1, 2)
	plan, err := Solve(5, 1, 4, cost)
	if err != nil {
		t.Fatal(err)
	}
	// One stage, n micro-batches: n sequential (F+B) pairs.
	if want := 4.0 * (5 + 10); math.Abs(plan.Total-want) > 1e-9 {
		t.Errorf("single-stage total = %g, want %g", plan.Total, want)
	}
}

func TestSolveExactMatchesBruteForce(t *testing.T) {
	f := func(fs [7]uint8, bs [7]uint8, pn uint8) bool {
		L := 7
		p := 2 + int(pn%3)
		n := p + 3
		fcost := make([]float64, L)
		bcost := make([]float64, L)
		for i := 0; i < L; i++ {
			fcost[i] = float64(fs[i]%9) + 1
			bcost[i] = fcost[i] + float64(bs[i]%9)
		}
		cost := tableCost(fcost, bcost, nil)
		got, exact, err1 := SolveExact(L, p, n, CostRows(cost), 0)
		want, err2 := BruteForce(L, p, n, cost)
		if err1 != nil || err2 != nil || !exact {
			return false
		}
		return math.Abs(got.Total-want.Total) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolveExactNeverWorseThanAlgorithm1(t *testing.T) {
	f := func(fs [8]uint8, bs [8]uint8) bool {
		L := 8
		const p, n = 3, 7
		fcost := make([]float64, L)
		bcost := make([]float64, L)
		for i := 0; i < L; i++ {
			fcost[i] = float64(fs[i]%9) + 1
			bcost[i] = fcost[i] + float64(bs[i]%9)
		}
		cost := tableCost(fcost, bcost, nil)
		heur, err1 := Solve(L, p, n, cost)
		exactPlan, _, err2 := SolveExact(L, p, n, CostRows(cost), 0)
		if err1 != nil || err2 != nil {
			return false
		}
		return exactPlan.Total <= heur.Total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolveExactFrontierCap(t *testing.T) {
	cost := uniformCost(1, 2)
	plan, exact, err := SolveExact(12, 4, 8, CostRows(cost), 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = exact // with uniform costs even a frontier of 1 is optimal
	want := float64(8+4-1) * 9
	if math.Abs(plan.Total-want) > 1e-9 {
		t.Errorf("capped exact total = %g, want %g", plan.Total, want)
	}
}

func TestSolveExactInfeasible(t *testing.T) {
	cost := func(s, i, j int) (float64, float64, bool) { return 0, 0, false }
	if _, _, err := SolveExact(6, 2, 4, CostRows(cost), 0); err == nil {
		t.Error("globally infeasible input accepted")
	}
	if _, _, err := SolveExact(4, 5, 8, CostRows(cost), 0); err == nil {
		t.Error("p > L accepted")
	}
}

func TestSolveExactBoundsConsistent(t *testing.T) {
	f := []float64{1, 3, 2, 5, 1, 2, 4, 1, 2, 3}
	b := []float64{2, 5, 4, 9, 3, 4, 7, 2, 5, 6}
	cost := tableCost(f, b, nil)
	plan, exact, err := SolveExact(len(f), 3, 8, CostRows(cost), 0)
	if err != nil || !exact {
		t.Fatal(err)
	}
	total, w, e, m, ok := Evaluate(plan.Bounds, 8, CostRows(cost))
	if !ok {
		t.Fatal("exact bounds infeasible under Evaluate")
	}
	if math.Abs(total-plan.Total) > 1e-9 || math.Abs(w-plan.W) > 1e-9 ||
		math.Abs(e-plan.E) > 1e-9 || math.Abs(m-plan.M) > 1e-9 {
		t.Errorf("SolveExact state (%g,%g,%g,%g) != Evaluate (%g,%g,%g,%g)",
			plan.Total, plan.W, plan.E, plan.M, total, w, e, m)
	}
}

func TestSolveCountsDPCells(t *testing.T) {
	plan, err := Solve(8, 3, 6, uniformCost(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if plan.DPCells <= 0 {
		t.Error("Solve counted no DP cells")
	}
	// The DP evaluates at most one cost per (stage, start, end) triple.
	if max := 3 * 8 * 8; plan.DPCells > max {
		t.Errorf("DPCells %d exceeds cell-space bound %d", plan.DPCells, max)
	}
	if plan.FrontierStates != 0 {
		t.Errorf("Algorithm 1 reported %d frontier states", plan.FrontierStates)
	}

	exact, _, err := SolveExact(8, 3, 6, CostRows(uniformCost(1, 2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.DPCells <= 0 {
		t.Error("SolveExact counted no DP cells")
	}
	if exact.FrontierStates <= 0 {
		t.Error("SolveExact counted no frontier states")
	}
}

// boundedRows is cost and bound over the cells a scan reads, laid out as a
// raw table, (s·L+i)·L+j for both, cells and bounds stepping by one along a
// row, so a scan over it is cut by bound.
func boundedRows(L, p int, cost CostFn, bound func(s, i, j int) (float64, float64)) *Rows {
	r := &Rows{Cells: make([]Cell, p*L*L), Stride: 1, Bounds: make([]Bound, p*L*L), BoundStride: 1}
	resolve := CostRows(cost).Resolve
	for s := 0; s < p; s++ {
		lo, hi := StageStarts(L, p, s)
		for i := lo; i <= hi; i++ {
			first := i
			if s == p-1 {
				first = L - 1 // the last stage's row is its one range
			}
			for j := first; j <= L-p+s; j++ {
				k := (s*L+i)*L + j
				r.Cells[k] = resolve(s, i, j)
				r.Bounds[k].F, r.Bounds[k].B = bound(s, i, j)
			}
		}
	}
	r.Base = func(s, i int) (int, int) {
		k := (s*L+i)*L + i
		if s == p-1 {
			k += L - 1 - i
		}
		return k, k
	}
	return r
}

// TestSolveBoundedCutsOnlyWithAValidBound is the other side of the fuzzers'
// cut legs. A bound within the Rows.Bounds contract leaves the plan as it was
// in fewer cells, while one above the cost moves it: the check the legs make
// can fail. On the tight instance the winning candidate's t is its own bound,
// n·(f+b), and beats the scan's first candidate by 2·10⁻⁸, so a cut that
// fired short of the proof — on best.T shrunk by a relative 10⁻⁸ — would keep
// the first.
func TestSolveBoundedCutsOnlyWithAValidBound(t *testing.T) {
	type boundFn = func(s, i, j int) (float64, float64)
	itself := func(cost CostFn) boundFn {
		return func(s, i, j int) (float64, float64) { f, b, _ := cost(s, i, j); return f, b }
	}
	uniform := uniformCost(1, 2)
	// Stage 0 as layer 0 alone gives t = 102; as layers 0..1, whose cost
	// exceeds the rest's, w = 2f, e = 2b and m = f+b, so t = n·(f+b).
	tight := func(s, i, j int) (float64, float64, bool) {
		if s == 1 {
			c := [...]float64{0, 5, 1, 0.5}[i]
			return c, c, true
		}
		c := [...]float64{1, 5.1 - 1e-9, 9}[j]
		return c, c, true
	}
	for _, tc := range []struct {
		name    string
		L, p, n int
		cost    CostFn
		bound   boundFn
		valid   bool
	}{
		{"uniform/the cost itself", 12, 3, 16, uniform, itself(uniform), true},
		{"uniform/half the cost", 12, 3, 16, uniform, func(s, i, j int) (float64, float64) {
			f, b, _ := uniform(s, i, j)
			return f / 2, b / 2
		}, true},
		{"uniform/above the cost", 12, 3, 16, uniform, func(s, i, j int) (float64, float64) { return 100, 100 }, false},
		{"tight/the cost itself", 4, 2, 10, tight, itself(tight), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uncut, err := Solve(tc.L, tc.p, tc.n, tc.cost)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := SolveRows(tc.L, tc.p, tc.n, boundedRows(tc.L, tc.p, tc.cost, tc.bound), nil, tc.p-1)
			if err != nil {
				t.Fatal(err)
			}
			if same := reflect.DeepEqual(stripEffort(cut), stripEffort(uncut)); same != tc.valid {
				t.Fatalf("cut plan %v (total %.17g), uncut %v (total %.17g): same = %v, want %v",
					cut.Bounds, cut.Total, uncut.Bounds, uncut.Total, same, tc.valid)
			}
			if tc.valid && cut.DPCells >= uncut.DPCells {
				t.Errorf("cut solve evaluated %d cells, uncut %d", cut.DPCells, uncut.DPCells)
			}
		})
	}
}
