package partition

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fullTableStates is Algorithm 1 as it stood before the levels were pruned to
// the reachable starts: every level computes every start a stage could
// syntactically take — the base level all L suffixes, level s all of
// 0..L−p+s — whether or not any partitioning can put stage s there. It is
// the reference TestReachableLevelsMatchFullTable holds solveLevel to.
func fullTableStates(L, p, n int, cost CostFn) [][]State {
	P := make([][]State, p)
	for s := range P {
		P[s] = make([]State, L)
	}
	for i := 0; i < L; i++ {
		f, b, ok := cost(p-1, i, L-1)
		if !ok {
			continue
		}
		P[p-1][i] = State{W: f, E: b, M: f + b, F: f, B: b, T: f + b + float64(n-1)*(f+b), Split: L - 1, OK: true}
	}
	for s := p - 2; s >= 0; s-- {
		for i := 0; i <= L-p+s; i++ {
			best := State{T: math.Inf(1)}
			for j := i; j <= L-p+s; j++ {
				next := P[s+1][j+1]
				if !next.OK {
					continue
				}
				f, b, ok := cost(s, i, j)
				if !ok {
					continue
				}
				w := f + math.Max(next.W+next.B, float64(p-s-1)*f)
				e := b + math.Max(next.E+next.F, float64(p-s-1)*b)
				m := math.Max(next.M, f+b)
				t := w + e + float64(n-p+s)*m
				if t < best.T {
					best = State{W: w, E: e, M: m, F: f, B: b, T: t, Split: j, OK: true}
				}
			}
			P[s][i] = best
		}
	}
	return P
}

// fullTableFrontiers is the same full-range reference for the exact solver,
// sharing only pruneFrontier with the production code.
func fullTableFrontiers(L, p, n int, cost CostFn, maxFrontier int) [][][]exState {
	F := make([][][]exState, p)
	for s := range F {
		F[s] = make([][]exState, L)
	}
	for i := 0; i < L; i++ {
		if f, b, ok := cost(p-1, i, L-1); ok {
			F[p-1][i] = []exState{{W: f, E: b, M: f + b, F: f, B: b, split: L - 1}}
		}
	}
	for s := p - 2; s >= 0; s-- {
		for i := 0; i <= L-p+s; i++ {
			var states []exState
			for j := i; j <= L-p+s; j++ {
				nextStates := F[s+1][j+1]
				if len(nextStates) == 0 {
					continue
				}
				f, b, ok := cost(s, i, j)
				if !ok {
					continue
				}
				for ni, nx := range nextStates {
					states = append(states, exState{
						W: f + math.Max(nx.W+nx.B, float64(p-s-1)*f),
						E: b + math.Max(nx.E+nx.F, float64(p-s-1)*b),
						M: math.Max(nx.M, f+b),
						F: f, B: b, split: j, next: ni,
					})
				}
			}
			F[s][i], _ = pruneFrontier(states, s, n, p, maxFrontier, false)
		}
	}
	return F
}

// solution strips a plan down to what a partitioning is: its bounds and the
// modeled totals. The effort counters legitimately
// differ — that is the point of pruning.
func solution(pl Plan) Plan {
	pl = stripEffort(pl)
	pl.FrontierStates = 0
	return pl
}

// TestReachableLevelsMatchFullTable proves the reachable-only levels change
// nothing a plan can see. Over random cost functions with infeasible holes,
// the pruned solvers — Algorithm 1 cold and warm-started from every stale
// level after a repricing of that stage, the exact solver cold under the same
// repriced costs — must return the plan the full table yields; Algorithm 1's
// memo must also hold a bit-equal root state and no cell outside the
// reachable starts.
func TestReachableLevelsMatchFullTable(t *testing.T) {
	feasible, infeasible := 0, 0
	defer func() {
		if feasible == 0 || infeasible == 0 {
			t.Errorf("instance mix is one-sided: %d feasible, %d infeasible", feasible, infeasible)
		}
	}()
	for seed := uint32(1); seed <= 60; seed++ {
		L := 2 + int(seed*7)%13
		p := 1 + int(seed*5)%min(L, 6)
		n := p + int(seed)%5
		base := fuzzCost(seed, int(seed)%6)
		ones := make([]float64, p)
		for s := range ones {
			ones[s] = 1
		}
		// stale = p−1 is the cold solve; below it, stage `stale` is repriced
		// after a first solve under all-ones and only levels 0..stale rerun.
		for stale := -1; stale <= p-1; stale++ {
			scale := append([]float64(nil), ones...)
			if stale >= 0 && stale < p-1 {
				scale[stale] = 1.75
			}
			cost := stageScaled(base, scale)
			name := fmt.Sprintf("seed%d_L%d_p%d_n%d_stale%d", seed, L, p, n, stale)

			ref := fullTableStates(L, p, n, cost)
			want, wantErr := assembleStates(L, p, ref)
			memo := &Memo{}
			if stale < p-1 {
				_, _ = SolveMemo(L, p, n, stageScaled(base, ones), memo, p-1)
			}
			got, err := SolveMemo(L, p, n, cost, memo, stale)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: pruned err %v, full table err %v", name, err, wantErr)
			}
			if err == nil {
				feasible++
			} else {
				infeasible++
			}
			if memo.levels[0][0] != ref[0][0] {
				t.Fatalf("%s: root state %+v, full table %+v", name, memo.levels[0][0], ref[0][0])
			}
			if err == nil && !reflect.DeepEqual(solution(got), solution(want)) {
				t.Fatalf("%s: plan %+v, full table %+v", name, got, want)
			}
			for s := range memo.levels {
				lo, hi := StageStarts(L, p, s)
				for i, st := range memo.levels[s] {
					if (i < lo || i > hi) && st != (State{}) {
						t.Fatalf("%s: unreachable cell (%d,%d) was written: %+v", name, s, i, st)
					}
				}
			}

			for _, fcap := range []int{0, 3} {
				refF := fullTableFrontiers(L, p, n, cost, fcap)
				gotE, _, errE := SolveExact(L, p, n, CostRows(cost), fcap)
				if (errE == nil) != (len(refF[0][0]) > 0) {
					t.Fatalf("%s cap %d: pruned err %v, full table root has %d states", name, fcap, errE, len(refF[0][0]))
				}
				if errE != nil {
					continue
				}
				// Walk the full table's chain from the same best root state.
				bestIdx, bestT := 0, math.Inf(1)
				for idx, st := range refF[0][0] {
					if tt := st.W + st.E + float64(n-p)*st.M; tt < bestT {
						bestT, bestIdx = tt, idx
					}
				}
				wantE := Plan{Bounds: make([]int, p+1), Total: bestT}
				wantE.W, wantE.E, wantE.M = refF[0][0][bestIdx].W, refF[0][0][bestIdx].E, refF[0][0][bestIdx].M
				at, idx := 0, bestIdx
				for s := 0; s < p; s++ {
					st := refF[s][at][idx]
					wantE.Bounds[s] = at
					at, idx = st.split+1, st.next
				}
				wantE.Bounds[p] = L
				if !reflect.DeepEqual(solution(gotE), wantE) {
					t.Fatalf("%s cap %d: exact plan %+v, full table %+v", name, fcap, gotE, wantE)
				}
			}
		}
	}
}
