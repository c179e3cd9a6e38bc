// dataparallel demonstrates the full 3D-parallelism story in miniature:
// pipeline-parallel stages inside each replica, synchronous gradient
// all-reduce across data-parallel replicas, and a per-device memory timeline
// exported as CSV from the simulator.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"adapipe"
)

func main() {
	rc := adapipe.TrainRunConfig{
		Net:    adapipe.TrainConfig{Layers: 2, Dim: 32, Heads: 4, FFN: 64, Vocab: 32, Seq: 24, Seed: 17},
		Bounds: []int{0, 3, 6}, // 2 pipeline stages
		Steps:  20, MicroBatches: 8, LR: 3e-3, DataSeed: 17,
	}
	single, err := adapipe.Train(rc)
	if err != nil {
		log.Fatal(err)
	}
	dp, err := adapipe.TrainDataParallel(2, rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("step   DP=1 loss   DP=2 loss")
	for i := 0; i < len(single.Losses); i += 5 {
		fmt.Printf("%4d   %9.5f   %9.5f\n", i, single.Losses[i], dp.Losses[i])
	}
	fmt.Println("\n(the same global batch split over 2 replicas reproduces the DP=1 losses)")

	// Memory-over-time profile of a GPT-3 iteration, CSV for plotting.
	plan, err := adapipe.PlanContext(context.Background(), adapipe.PlanRequest{
		Model: "gpt3", Cluster: "a",
		TP: 8, PP: 8, DP: 1,
		GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := adapipe.SimulateWithOptions(plan, adapipe.Sched1F1B, adapipe.SimOptions{Memory: true})
	if err != nil {
		log.Fatal(err)
	}
	const out = "memory_timeline.csv"
	if err := os.WriteFile(out, []byte(adapipe.MemoryCSV(res)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d devices, peak %.1f GiB)\n", out, len(res.MemTimeline), float64(res.MaxPeakMem())/(1<<30))
}
