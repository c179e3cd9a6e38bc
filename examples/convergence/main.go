// convergence trains a real (pure-Go) micro-transformer twice under the
// multi-goroutine 1F1B pipeline executor — once with full recomputation and
// even partitioning (DAPPLE-Full), once under a genuine AdaPipe plan — and
// shows the loss curves coincide exactly: recomputation replays the same
// floating-point operations, so it cannot change a single gradient (§7.5).
package main

import (
	"fmt"
	"log"

	"adapipe"
)

func main() {
	const stages, micros = 2, 8
	net := adapipe.TrainConfig{
		Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 48, Seed: 7,
	}
	// Layer sequence: Embedding + 2*Layers blocks + Head = 10 entries.
	evenBounds := []int{0, 5, 10}

	fullRecompute := make([][]adapipe.SaveSpec, stages)
	for s := range fullRecompute {
		for b := 0; b < 4; b++ {
			fullRecompute[s] = append(fullRecompute[s], adapipe.SaveNone())
		}
	}

	// Plan the same net with the real two-level search on a toy device that
	// holds full recomputation but not saving everything, so the plan must
	// choose what each stage recomputes.
	m := net.Model()
	strat := adapipe.Strategy{TP: 1, PP: stages, DP: 1}
	tc := adapipe.TrainingConfig{GlobalBatch: micros, MicroBatch: 1, SeqLen: net.Seq}
	capacity, err := adapipe.ToyCapacity(m, strat, tc, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	planner, err := adapipe.NewPlanner(m, adapipe.ToyCluster(stages, capacity), strat, tc, adapipe.ToyOptions())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Plan()
	if err != nil {
		log.Fatal(err)
	}
	planBounds, planSaves, err := adapipe.TrainSpecFromPlan(plan, m)
	if err != nil {
		log.Fatal(err)
	}

	runs := []struct {
		name   string
		bounds []int
		saves  [][]adapipe.SaveSpec
	}{
		{"DAPPLE-Full (recompute everything)", evenBounds, fullRecompute},
		{fmt.Sprintf("AdaPipe plan (bounds %v)", planBounds), planBounds, planSaves},
	}

	var curves [][]float64
	for _, r := range runs {
		res, err := adapipe.Train(adapipe.TrainRunConfig{
			Net: net, Bounds: r.bounds, Saves: r.saves,
			Steps: 150, MicroBatches: micros, LR: 1e-3, DataSeed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		curves = append(curves, res.Losses)
		fmt.Printf("%-36s loss %0.4f → %0.4f   peak activations per stage: %v bytes\n",
			r.name, res.Losses[0], res.Losses[len(res.Losses)-1], res.PeakActBytes)
	}
	var maxGap float64
	for i := range curves[0] {
		if d := curves[0][i] - curves[1][i]; d > maxGap || -d > maxGap {
			if d < 0 {
				d = -d
			}
			maxGap = d
		}
	}
	fmt.Printf("\nmax |Δloss| between the two runs over 150 steps: %g\n", maxGap)
	if maxGap == 0 {
		fmt.Println("recomputation is exact: the curves are bit-identical (cf. paper Figure 10)")
	}
}
