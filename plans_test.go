package adapipe_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"adapipe"
	"adapipe/internal/core"
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

// onEachRowPath runs test once per row-pass path of the knapsack this CPU
// has (BenchmarkKnapsack's hook), skipping the others.
func onEachRowPath(t *testing.T, test func(t *testing.T)) {
	for _, path := range rowPaths {
		t.Run(path, func(t *testing.T) {
			if !hasPath(recomputeSetRowLevel, path) {
				t.Skipf("no %s on this CPU", path)
			}
			defer recomputeSetRowLevel(recomputeSetRowLevel(path))
			test(t)
		})
	}
}

// TestColdPlansUnchangedFromParent plans every plan_cold shape at its largest
// seq_len and at half of it (global batch max(32, pp)) and hashes the plan
// JSON of all 36 searches, each followed by a newline — once on each path of
// the knapsack's row pass.
func TestColdPlansUnchangedFromParent(t *testing.T) {
	onEachRowPath(t, func(t *testing.T) {
		if got, _ := coldPlans(t); got != coldPlansSHA256 {
			t.Fatalf("plan digest %s, want %s (captured at 8e8ff7b)", got, coldPlansSHA256)
		}
	})
}

// Over the 36 searches of the cold digest, the knapsack tables hold
// coldTableCells cells and the row passes compute coldLiveCells of them; the
// rest lie in the saturated tails the cut skips.
const coldTableCells, coldLiveCells = 165286429, 80796033

// TestKnapsackLiveCells pins both counts, so a saturated-tail cut that
// weakens — computes cells it could skip — fails here rather than only
// slowing the search down. The table size does not depend on the cut.
func TestKnapsackLiveCells(t *testing.T) {
	_, st := coldPlans(t)
	if st.KnapsackCells != coldTableCells || st.KnapsackLiveCells != coldLiveCells {
		t.Fatalf("knapsack cells: table %d, live %d (%.1f%%); want %d, %d",
			st.KnapsackCells, st.KnapsackLiveCells, 100*float64(st.KnapsackLiveCells)/float64(st.KnapsackCells),
			coldTableCells, coldLiveCells)
	}
}

// coldPlans runs the cold digest's 36 searches and returns the digest and
// the sum of their search counters' knapsack cells.
func coldPlans(t *testing.T) (digest string, sum core.SearchStats) {
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
			sum.KnapsackCells += plan.Search.KnapsackCells
			sum.KnapsackLiveCells += plan.Search.KnapsackLiveCells
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
	return hex.EncodeToString(h.Sum(nil)), sum
}

// widePlansSHA256 is the digest of TestWidePlansUnchangedFromParent as the
// planner produced it at commit 2b7641b, before Algorithm 1's scans were cut
// by a lower bound. It is never regenerated.
const widePlansSHA256 = "e0bc8c82fad5b1bc1852ecb9f4a706c46f5ee7ad4b88d85243da4883090c8ac8"

// replanRuns are the four training runs of the repo benchmark's replan_sweep.
var replanRuns = []adapipe.PlanRequest{
	{Model: "gpt3", Cluster: "a", TP: 8, PP: 8, SeqLen: 16384, GlobalBatch: 32},
	{Model: "llama2", Cluster: "a", TP: 4, PP: 16, SeqLen: 8192, GlobalBatch: 64},
	{Model: "gpt3", Cluster: "b", TP: 8, PP: 16, SeqLen: 4096, GlobalBatch: 32},
	{Model: "llama2", Cluster: "b", TP: 8, PP: 8, SeqLen: 8192, GlobalBatch: 32},
}

// TestWidePlansUnchangedFromParent covers what the cold digest, at n ≈ p,
// does not: every plan_cold shape at its largest seq_len with global batch
// 256, where n ≫ p, and a seeded walk of 12 warm replans per replan_sweep
// run, each moving one or two stage scales by 0.05 inside [1.0, 1.5]. It
// hashes every plan's JSON and, per replan, the repriced incumbent, the
// adoption and both simulated iteration times — once on each path of the
// knapsack's row pass.
func TestWidePlansUnchangedFromParent(t *testing.T) { onEachRowPath(t, widePlansDigest) }

func widePlansDigest(t *testing.T) {
	h := sha256.New()
	write := func(p *adapipe.Plan) {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	for _, s := range coldShapes {
		req := adapipe.PlanRequest{
			Version: adapipe.RequestVersion, Model: s.model, Cluster: s.cluster, Method: "AdaPipe",
			TP: s.tp, PP: s.pp, DP: 1, SeqLen: s.maxSeq, GlobalBatch: 256, MicroBatch: 1,
		}
		plan, err := adapipe.PlanContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		write(plan)
	}
	r := rand.New(rand.NewPCG(29, 1))
	adopted := 0
	for _, req := range replanRuns {
		req.Version, req.Method, req.DP, req.MicroBatch = adapipe.RequestVersion, "AdaPipe", 1, 1
		pl, err := adapipe.NewPlannerFromRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]int, req.PP)
		for range 12 {
			for k := 1 + r.IntN(2); k > 0; k-- {
				st, d := r.IntN(len(steps)), 1-2*r.IntN(2)
				if steps[st]+d < 0 || steps[st]+d > 10 {
					d = -d
				}
				steps[st] += d
			}
			scale := make([]float64, len(steps))
			for st, v := range steps {
				scale[st] = 1 + float64(v)*0.05
			}
			rp, err := pl.ReplanWithScale(plan, scale)
			if err != nil {
				t.Fatalf("%+v under %v: %v", req, scale, err)
			}
			write(rp.Old)
			write(rp.New)
			fmt.Fprintf(h, "%t %x %x\n", rp.Adopted, math.Float64bits(rp.OldSim.IterTime), math.Float64bits(rp.NewSim.IterTime))
			if rp.Adopted {
				plan = rp.New
				adopted++
			}
		}
		if pl.Stats.ReplanIncremental != 12 {
			t.Errorf("%s pp%d: %d of 12 replans warm-started", req.Model, req.PP, pl.Stats.ReplanIncremental)
		}
	}
	t.Logf("%d of %d replans adopted", adopted, 12*len(replanRuns))
	if got := hex.EncodeToString(h.Sum(nil)); got != widePlansSHA256 {
		t.Fatalf("plan digest %s, want %s (captured at 2b7641b)", got, widePlansSHA256)
	}
}
