package adapipe_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"adapipe"
)

// coldShapes are the 18 (model, cluster, tp, pp) rows of the repo benchmark's
// plan_cold request table, each with the largest seq_len the table plans.
var coldShapes = []struct {
	model, cluster string
	tp, pp, maxSeq int
}{
	{"gpt3", "a", 8, 8, 32768},
	{"gpt3", "a", 4, 16, 16384},
	{"gpt3", "a", 2, 32, 8192},
	{"gpt3", "b", 8, 16, 4096},
	{"gpt3", "b", 8, 32, 32768},
	{"llama2", "a", 8, 8, 32768},
	{"llama2", "a", 4, 16, 32768},
	{"llama2", "a", 2, 32, 32768},
	{"llama2", "a", 4, 8, 32768},
	{"llama2", "a", 8, 4, 32768},
	{"llama2", "a", 2, 16, 32768},
	{"llama2", "a", 1, 32, 8192},
	{"llama2", "b", 8, 8, 32768},
	{"llama2", "b", 4, 16, 8192},
	{"llama2", "b", 2, 32, 4096},
	{"llama2", "b", 8, 16, 32768},
	{"llama2", "b", 4, 32, 32768},
	{"llama2", "b", 8, 32, 32768},
}

// coldPlansSHA256 is the digest of the plans below as the planner produced
// them at commit 8e8ff7b, before the knapsack's row pass was vectorized and
// its choice matrix packed into bits. It is never regenerated: a mismatch
// means a plan changed, and the fix belongs in the code.
const coldPlansSHA256 = "e4908ac4e1f76cc1d68e5dc63204770d143a942003eb006deadc9dd8428163e3"

// TestColdPlansUnchangedFromParent plans every plan_cold shape at its largest
// seq_len and at half of it (global batch max(32, pp)) and hashes the plan
// JSON of all 36 searches, each followed by a newline — once on each path of
// the knapsack's row pass (BenchmarkKnapsack's hook; without AVX2 the simd
// pass repeats the portable one).
func TestColdPlansUnchangedFromParent(t *testing.T) {
	for _, path := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"generic", false}} {
		t.Run(path.name, func(t *testing.T) {
			defer recomputeSetAVX2(recomputeSetAVX2(path.simd))
			coldPlansDigest(t)
		})
	}
}

func coldPlansDigest(t *testing.T) {
	h := sha256.New()
	filled := 0
	for _, s := range coldShapes {
		for _, seq := range []int{s.maxSeq, s.maxSeq / 2} {
			req := adapipe.PlanRequest{
				Version: adapipe.RequestVersion, Model: s.model, Cluster: s.cluster, Method: "AdaPipe",
				TP: s.tp, PP: s.pp, DP: 1, SeqLen: seq, GlobalBatch: max(32, s.pp), MicroBatch: 1,
			}
			plan, err := adapipe.PlanContext(context.Background(), req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			if plan.Search.KnapsackRuns > 0 {
				filled++
			}
			b, err := json.Marshal(plan)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(append(b, '\n'))
		}
	}
	if filled < 2*len(coldShapes) {
		t.Errorf("only %d of %d searches filled a knapsack table: the digest would not cover the DP", filled, 2*len(coldShapes))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != coldPlansSHA256 {
		t.Fatalf("plan digest %s, want %s (captured at 8e8ff7b)", got, coldPlansSHA256)
	}
}
