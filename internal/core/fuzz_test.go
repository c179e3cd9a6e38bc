package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// FuzzReplanIncrementalVsFull is the fuzzed half of the incremental-replan
// differential harness: an arbitrary small configuration is planned cold,
// then repriced with a fuzz-chosen scale vector (identity, a single-stage
// bump, every stage, or an extreme 10x straggler) through ReplanWithScale's
// warm-started fast path. The resulting plan must be byte-identical
// (canonical Plan JSON) to a cold full search on a fresh planner under the
// same scale, and the fast path must never run more knapsacks than the cold
// search does.
func FuzzReplanIncrementalVsFull(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), uint8(0), uint8(0), uint8(0))   // identity
	f.Add(uint8(6), uint8(4), uint8(8), uint8(0), uint8(2), uint8(1))   // single-stage bump
	f.Add(uint8(6), uint8(4), uint8(8), uint8(2), uint8(0), uint8(2))   // all stages
	f.Add(uint8(10), uint8(6), uint8(12), uint8(0), uint8(5), uint8(3)) // extreme 10x
	f.Add(uint8(6), uint8(4), uint8(8), uint8(1), uint8(2), uint8(1))   // exact partitioning: the replan searches cold
	f.Fuzz(func(t *testing.T, dec8, pp8, n8, part8, st8, kind8 uint8) {
		decoders := int(dec8%10) + 1
		L := 2*decoders + 2
		pp := int(pp8%uint8(L)) + 1
		if pp > 64 {
			pp = 64
		}
		n := pp + int(n8%16)
		part := []PartitionMode{PartitionAdaptive, PartitionExact}[part8%2]

		scale := make([]float64, pp)
		for s := range scale {
			scale[s] = 1
		}
		switch kind8 % 4 {
		case 0: // identity: pure reassembly, nothing invalidated
		case 1:
			scale[int(st8)%pp] = 1.25
		case 2:
			for s := range scale {
				scale[s] = 1.1
			}
		case 3:
			scale[int(st8)%pp] = 10
		}

		warm := tinyPlanner(t, decoders, pp, n, 0.15, part)
		old, err := warm.Plan()
		if err != nil {
			return // infeasible — nothing to replan
		}
		runsBefore := warm.Stats.KnapsackRuns
		r, err := warm.ReplanWithScale(old, scale)
		if err != nil {
			t.Fatalf("replan: %v", err)
		}
		// PartitionExact keeps no DP memo: its replan searches cold on the
		// warm cost table and is held to byte-identity and the knapsack bound.
		if warm.Stats.ReplanIncremental != 1 && part != PartitionExact {
			t.Fatalf("fast path not taken: ReplanIncremental = %d", warm.Stats.ReplanIncremental)
		}

		cold := tinyPlanner(t, decoders, pp, n, 0.15, part)
		if err := cold.SetStageScale(scale); err != nil {
			t.Fatal(err)
		}
		coldPlan, err := cold.Plan()
		if err != nil {
			t.Fatalf("cold rebuild infeasible where warm replan succeeded: %v", err)
		}
		got, err := json.Marshal(r.New)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(coldPlan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("incremental plan differs from cold search (scale %v):\n%s\nvs\n%s", scale, got, want)
		}
		if incr := warm.Stats.KnapsackRuns - runsBefore; incr > cold.Stats.KnapsackRuns {
			t.Fatalf("incremental replan ran %d knapsacks, cold search only %d", incr, cold.Stats.KnapsackRuns)
		}
	})
}

// FuzzPlannerPlanRoundTrip drives the full search over arbitrary small
// configurations — including degenerate shapes like one layer per stage and
// near-zero memory budgets — asserting the planner never panics, and that
// every produced plan survives marshal → unmarshal → Validate → re-marshal
// with byte-identical JSON (the serialization contract execution engines
// rely on).
func FuzzPlannerPlanRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(8), uint8(8), uint8(1), uint8(1)) // L == p
	f.Add(uint8(6), uint8(4), uint8(8), uint8(9), uint8(2)) // tiny budget
	f.Add(uint8(15), uint8(8), uint8(16), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, dec8, pp8, n8, res8, part8 uint8) {
		decoders := int(dec8%15) + 1
		L := 2*decoders + 2
		pp := int(pp8%uint8(L)) + 1
		if pp > 64 { // ClusterA has 64 devices at TP=1
			pp = 64
		}
		n := pp + int(n8%16)
		// reserve sweeps [0, 0.99]: high values shrink the DP budget toward
		// zero, the "capacity 0" degenerate case.
		reserve := float64(res8%100) / 100
		part := []PartitionMode{PartitionAdaptive, PartitionEven, PartitionExact}[part8%3]

		cfg := model.Tiny(decoders)
		cl := hardware.ClusterA()
		strat := parallel.Strategy{TP: 1, PP: pp, DP: 1}
		train := parallel.Config{GlobalBatch: n, MicroBatch: 1, SeqLen: 1024}
		opts := DefaultOptions()
		opts.MemoryReserve = reserve
		opts.Recompute = RecomputeAdaptive
		opts.Partition = part
		pl, err := NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			t.Skip() // invalid configuration, rejected up front
		}
		p, err := pl.Plan()
		if err != nil {
			return // infeasible (e.g. budget too small) — no plan to round-trip
		}

		first, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Plan
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if err := back.Validate(pl.LayerCount()); err != nil {
			t.Fatalf("round-tripped plan invalid: %v", err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not lossless:\n%s\nvs\n%s", first, second)
		}
	})
}
