// llama2ascend plans Llama 2 70B training on the 32 GB Ascend 910 cluster
// (cluster B), where memory pressure is much tighter than on the A100s: the
// no-recomputation baseline OOMs at sequence length 4096 and AdaPipe's
// per-stage save sets become strongly uneven. Every evaluation goes through
// the versioned PlanRequest schema, switching only the Method field.
package main

import (
	"context"
	"fmt"
	"log"

	"adapipe"
)

func main() {
	ctx := context.Background()
	// The paper's cluster-B setting: TP 4, PP 8, batch scaled to DP.
	req := adapipe.PlanRequest{
		Model:       "llama2",
		Cluster:     "b",
		TP:          4,
		PP:          8,
		DP:          4,
		GlobalBatch: 256,
		MicroBatch:  1,
		SeqLen:      4096,
	}

	for _, name := range []string{"DAPPLE-Full", "DAPPLE-Non", "Even Partitioning", "AdaPipe"} {
		r := req
		r.Method = name
		o, err := adapipe.SimulateContext(ctx, r)
		if err != nil {
			log.Fatal(err)
		}
		if !o.Feasible() {
			fmt.Printf("%-18s OOM (32 GiB devices)\n", name)
			continue
		}
		fmt.Printf("%-18s %8.2fs  peak %.1f GiB\n", name, o.IterTime, float64(o.Sim.MaxPeakMem())/(1<<30))
	}

	plan, err := adapipe.PlanContext(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== AdaPipe plan on Ascend 910 ===")
	fmt.Print(adapipe.Describe(plan))
}
