// Quickstart: plan GPT-3 175B training on the A100 cluster with AdaPipe and
// compare the searched plan against the full-recomputation baseline. The
// whole flow goes through the versioned PlanRequest API — the same schema the
// CLI, the benchmarks and the adapiped daemon speak — so this example doubles
// as a template for driving the planner programmatically.
package main

import (
	"context"
	"fmt"
	"log"

	"adapipe"
)

func main() {
	ctx := context.Background()
	req := adapipe.PlanRequest{
		Model:       "gpt3",
		Cluster:     "a",
		TP:          8,
		PP:          8,
		DP:          1,
		GlobalBatch: 32,
		MicroBatch:  1,
		SeqLen:      16384,
	}

	// Search: adaptive recomputation (per-stage knapsack) + adaptive
	// partitioning (stage-boundary DP).
	plan, err := adapipe.PlanContext(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== AdaPipe plan ===")
	fmt.Print(adapipe.Describe(plan))

	// Execute the plan on the discrete-event pipeline simulator.
	res, err := adapipe.Simulate(plan, adapipe.Sched1F1B, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated iteration: %.3fs (bubble ratio %.3f)\n", res.IterTime, res.BubbleRatio())

	// Compare against the DAPPLE-Full baseline on the same strategy: the
	// same request with only the method switched.
	baseReq := req
	baseReq.Method = "DAPPLE-Full"
	base, err := adapipe.SimulateContext(ctx, baseReq)
	if err != nil {
		log.Fatal(err)
	}
	if !base.Feasible() {
		log.Fatalf("baseline infeasible: %v", base.Err)
	}
	fmt.Printf("DAPPLE-Full baseline: %.3fs  →  AdaPipe speedup %.2fx\n",
		base.IterTime, base.IterTime/res.IterTime)
}
