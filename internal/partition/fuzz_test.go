package partition

import (
	"math"
	"reflect"
	"testing"
)

// fuzzCost derives a deterministic cost function from a seed: per-(s,i,j)
// forward/backward times from a small integer hash, with a tunable fraction of
// infeasible cells so the solvers' feasibility handling is exercised.
func fuzzCost(seed uint32, infeasibleMod int) CostFn {
	return func(s, i, j int) (float64, float64, bool) {
		h := seed
		for _, v := range [...]int{s, i, j} {
			h = (h ^ uint32(v)*0x9e3779b9) * 0x85ebca6b
			h ^= h >> 13
		}
		if infeasibleMod > 0 && int(h%16) < infeasibleMod {
			return 0, 0, false
		}
		f := 1 + float64(h%97)/10
		b := 1 + float64((h>>8)%89)/10
		// Longer ranges cost more, keeping the instances non-degenerate.
		span := float64(j - i + 1)
		return f * span, b * span, true
	}
}

// sameCut requires a solve cut by a valid bound to give the uncut solve's
// plan, or its error, after evaluating no more cells.
func sameCut(t *testing.T, uncut Plan, uncutErr error, cut Plan, cutErr error) {
	t.Helper()
	if (cutErr == nil) != (uncutErr == nil) {
		t.Fatalf("feasibility disagreement: cut err=%v, uncut err=%v", cutErr, uncutErr)
	}
	if uncutErr != nil {
		return
	}
	if !reflect.DeepEqual(stripEffort(cut), stripEffort(uncut)) {
		t.Fatalf("cut solve differs from uncut:\n%+v\nvs\n%+v", cut, uncut)
	}
	if cut.DPCells > uncut.DPCells {
		t.Fatalf("cut solve evaluated %d cells, uncut %d", cut.DPCells, uncut.DPCells)
	}
}

// FuzzPartitionSolveVsBruteForce feeds arbitrary small instances to Algorithm
// 1, its exact Pareto variant and the exponential oracle:
//   - the row scan, cut and uncut, over a random table in each index layout
//     passes diffRows: it is the CostFn adapter field for field, never beats
//     BruteForce and agrees with it on feasibility, and cut is uncut;
//   - SolveExact with an unlimited frontier, reading the same table through
//     its row view (whose bounds it must ignore), matches BruteForce bit for
//     bit and never loses to Algorithm 1;
//   - dominance pruning never moves SolveExact's optimum.
func FuzzPartitionSolveVsBruteForce(f *testing.F) {
	f.Add(uint32(1), uint8(6), uint8(3), uint8(8), uint8(0))
	f.Add(uint32(42), uint8(7), uint8(7), uint8(7), uint8(4))
	f.Add(uint32(7), uint8(5), uint8(2), uint8(12), uint8(8))
	f.Add(uint32(99), uint8(1), uint8(1), uint8(1), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint32, l8, p8, n8, inf8 uint8) {
		L := int(l8%7) + 1
		p := int(p8%uint8(L)) + 1
		n := p + int(n8%8)
		for _, iso := range []bool{true, false} {
			tab := newRandTable(int64(seed), L, p, int(inf8%12), iso)
			diffRows(t, tab, n, nil, nil)
			cost := tab.cost(nil)
			heur, heurErr := Solve(L, p, n, cost)
			exact, isExact, exactErr := SolveExact(L, p, n, tab.rows(t, nil, true), 0)
			brute, bruteErr := BruteForce(L, p, n, cost)
			if (exactErr == nil) != (bruteErr == nil) {
				t.Fatalf("feasibility disagreement: SolveExact err=%v, BruteForce err=%v", exactErr, bruteErr)
			}
			if bruteErr == nil {
				if !isExact {
					t.Fatal("unlimited frontier reported inexact")
				}
				// Both price a partitioning by the same recurrences in the
				// same float operations, and both keep the least total.
				if math.Float64bits(exact.Total) != math.Float64bits(brute.Total) {
					t.Fatalf("SolveExact %.17g != oracle %.17g", exact.Total, brute.Total)
				}
				// The exact solver can only improve on the heuristic.
				if heurErr == nil && exact.Total > heur.Total+1e-9 {
					t.Fatalf("SolveExact %.12g worse than Solve %.12g", exact.Total, heur.Total)
				}
			}

			// Dominance-pruning property: with the dominance filter disabled
			// the per-cell frontiers are supersets of the pruned ones, and
			// the optimum must not move by a single bit — the parent
			// recurrences are monotone in every state component, so a
			// dominated state can never derive a smaller total than its
			// dominator's chain, in IEEE float arithmetic as well as in the
			// reals.
			oracle, _, oracleErr := solveExact(L, p, n, CostRows(cost), 0, true)
			if (oracleErr == nil) != (exactErr == nil) {
				t.Fatalf("feasibility disagreement: unpruned oracle err=%v, SolveExact err=%v", oracleErr, exactErr)
			}
			if exactErr == nil {
				if math.Float64bits(oracle.Total) != math.Float64bits(exact.Total) {
					t.Fatalf("dominance pruning moved the optimum: pruned %.17g, unpruned oracle %.17g",
						exact.Total, oracle.Total)
				}
				if oracle.FrontierStates < exact.FrontierStates {
					t.Fatalf("unpruned oracle kept %d states, fewer than the pruned run's %d",
						oracle.FrontierStates, exact.FrontierStates)
				}
			}
		}
	})
}

// stripEffort zeroes a plan's search-effort counters so differential checks
// compare the solution itself: a warm-started solve legitimately recomputes
// fewer cells than a cold one.
func stripEffort(p Plan) Plan {
	p.DPCells = 0
	p.WarmCells = 0
	return p
}

// stageScaled wraps a cost function with a per-stage multiplier, the exact
// shape of the planner's straggler repricing.
func stageScaled(base CostFn, sc []float64) CostFn {
	return func(s, i, j int) (float64, float64, bool) {
		f, b, ok := base(s, i, j)
		return f * sc[s], b * sc[s], ok
	}
}

// FuzzPartitionMemoVsCold is the partition-level differential harness for
// warm-started solving: a memo built under one per-stage scale vector and
// re-solved under another (recomputing only the levels at or below the
// highest changed stage) must be bit-identical to a cold solve under the new
// vector, cut and uncut, in both index layouts, through the row scan and the
// CostFn adapter alike (diffRows).
func FuzzPartitionMemoVsCold(f *testing.F) {
	f.Add(uint32(1), uint8(6), uint8(3), uint8(8), uint8(0), uint8(1), uint8(0))
	f.Add(uint32(42), uint8(7), uint8(7), uint8(7), uint8(4), uint8(3), uint8(1))
	f.Add(uint32(7), uint8(5), uint8(2), uint8(12), uint8(8), uint8(0), uint8(2))
	f.Add(uint32(99), uint8(8), uint8(4), uint8(6), uint8(2), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint32, l8, p8, n8, inf8, st8, kind8 uint8) {
		L := int(l8%7) + 1
		p := int(p8%uint8(L)) + 1
		n := p + int(n8%8)

		// First solve under all-ones scale, then reprice one of four ways:
		// identity (stale = −1), a single mid-stage bump, every stage, or an
		// extreme 10x straggler.
		ones := make([]float64, p)
		for s := range ones {
			ones[s] = 1
		}
		st := int(st8) % p
		scale := ones
		switch kind8 % 4 {
		case 1:
			scale = bump(ones, p, st, 1.25)
		case 2:
			scale = make([]float64, p)
			for s := range scale {
				scale[s] = 1.1
			}
		case 3:
			scale = bump(ones, p, st, 10)
		}
		for _, iso := range []bool{true, false} {
			diffRows(t, newRandTable(int64(seed), L, p, int(inf8%12), iso), n, ones, scale)
		}
	})
}
