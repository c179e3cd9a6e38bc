// timeline renders ASCII Gantt charts of the pipeline schedules the paper
// discusses — GPipe vs 1F1B (Figure 2) and Chimera's bidirectional variants —
// executed by the discrete-event simulator, and writes a Chrome trace of the
// AdaPipe plan for interactive inspection.
package main

import (
	"fmt"
	"log"
	"os"

	"adapipe"
)

func main() {
	// DAPPLE-Full = full recomputation + even partitioning: the fixed plan
	// shape that makes the schedule structure easiest to read in the charts.
	req := adapipe.PlanRequest{
		Model:       "tiny",
		Cluster:     "a",
		Method:      "DAPPLE-Full",
		TP:          1,
		PP:          4,
		DP:          1,
		GlobalBatch: 8,
		MicroBatch:  1,
		SeqLen:      2048,
	}
	planner, err := adapipe.NewPlannerFromRequest(req)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Plan()
	if err != nil {
		log.Fatal(err)
	}
	pp := plan.Strategy.PP

	for _, kind := range []struct {
		name string
		k    adapipe.ScheduleKind
	}{
		{"GPipe", adapipe.SchedGPipe},
		{"1F1B (DAPPLE)", adapipe.Sched1F1B},
		{"Chimera", adapipe.SchedChimera},
	} {
		res, err := adapipe.Simulate(plan, kind.k, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: iteration %.4fs, bubble ratio %.3f ==\n", kind.name, res.IterTime, res.BubbleRatio())
		fmt.Print(adapipe.Gantt(res, pp, 96))
	}

	res, err := adapipe.Simulate(plan, adapipe.Sched1F1B, true)
	if err != nil {
		log.Fatal(err)
	}
	data, err := adapipe.ChromeTrace(res)
	if err != nil {
		log.Fatal(err)
	}
	const out = "timeline.trace.json"
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (load in chrome://tracing or Perfetto)\n", out)
}
