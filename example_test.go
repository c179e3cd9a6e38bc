package adapipe_test

import (
	"context"
	"fmt"

	"adapipe"
)

// ExamplePlanContext runs the full AdaPipe search — adaptive recomputation
// inside adaptive stage partitioning — described by a versioned PlanRequest.
// Plans are deterministic: the same request always produces byte-identical
// plans, which is why the output below can be asserted exactly.
func ExamplePlanContext() {
	req := adapipe.PlanRequest{
		Model:       "tiny",
		TP:          1,
		PP:          4,
		DP:          1,
		GlobalBatch: 16,
		MicroBatch:  1,
		SeqLen:      1024,
	}
	plan, err := adapipe.PlanContext(context.Background(), req)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("stages: %d\n", len(plan.Stages))
	fmt.Printf("micro-batches: %d\n", plan.MicroBatches)
	last := plan.Stages[len(plan.Stages)-1]
	fmt.Printf("layers covered: [%d, %d)\n", plan.Stages[0].LayerLo, last.LayerHi)
	// Output:
	// stages: 4
	// micro-batches: 16
	// layers covered: [0, 18)
}

// ExampleSimulate executes a searched plan on the discrete-event pipeline
// simulator under the 1F1B schedule and checks it against device memory.
func ExampleSimulate() {
	req := adapipe.PlanRequest{
		Model:       "tiny",
		TP:          1,
		PP:          4,
		DP:          1,
		GlobalBatch: 16,
		MicroBatch:  1,
		SeqLen:      1024,
	}
	plan, err := adapipe.PlanContext(context.Background(), req)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := adapipe.Simulate(plan, adapipe.Sched1F1B, false)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("iteration time positive: %t\n", res.IterTime > 0)
	fmt.Printf("fits device memory: %t\n", res.MaxPeakMem() <= adapipe.ClusterA().Device.MemCapacity)
	// Output:
	// iteration time positive: true
	// fits device memory: true
}
