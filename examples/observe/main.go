// observe demonstrates the observability layer end to end: it plans a tiny
// model with the real two-level search, executes the plan on the pure-Go
// 1F1B pipeline engine with the op recorder attached, renders the *measured*
// timeline through the same Gantt/Chrome-trace renderers the simulator uses,
// and exports the simulated and measured runs side by side.
//
// Outputs (under -dir):
//
//	measured.trace.json   Chrome-trace JSON of the measured run (load in
//	                      chrome://tracing or https://ui.perfetto.dev)
//	simulated.trace.json  Chrome-trace JSON of the simulated timeline
//	metrics.prom          search + simulation + measured-run gauges in
//	                      Prometheus text format
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"adapipe"
)

func main() {
	dir := flag.String("dir", ".", "output directory for trace and metrics files")
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}

	const (
		layers = 4
		stages = 2
		micros = 8
		seq    = 48
	)
	// The net is described once. net.Model() is the same architecture for
	// the planner's analytical cost model, with BytesPerValue 8 — the
	// engine's float64 — so measured and modeled activation footprints live
	// on the same scale.
	net := adapipe.TrainConfig{
		Layers: layers, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: seq, Seed: 7,
	}
	m := net.Model()
	strat := adapipe.Strategy{TP: 1, PP: stages, DP: 1}
	tc := adapipe.TrainingConfig{GlobalBatch: micros, MicroBatch: 1, SeqLen: seq}

	// Size a toy device so adaptive recomputation is forced to choose:
	// large enough that full recomputation fits, too small to save all.
	capacity, err := adapipe.ToyCapacity(m, strat, tc, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	opts := adapipe.ToyOptions()
	planner, err := adapipe.NewPlanner(m, adapipe.ToyCluster(stages, capacity), strat, tc, opts)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(adapipe.Describe(plan))

	// Execute the plan for real with the op recorder attached.
	bounds, saves, err := adapipe.TrainSpecFromPlan(plan, m)
	if err != nil {
		log.Fatal(err)
	}
	res, err := adapipe.Train(adapipe.TrainRunConfig{
		Net: net, Bounds: bounds, Saves: saves,
		Steps: 3, MicroBatches: micros, LR: 1e-3, DataSeed: 7,
		Record: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Trace == nil {
		log.Fatal("observe: training run returned no trace")
	}
	measured := res.Trace.Result()
	fmt.Printf("\nmeasured final step: wall %.1fms, stall ratio %.3f\n",
		res.Trace.WallTime*1e3, res.Trace.StallRatio())
	fmt.Print(adapipe.Gantt(measured, stages, 100))

	// Simulate the same plan for the side-by-side exports.
	simulated, err := adapipe.SimulateWithOptions(plan, adapipe.Sched1F1B,
		adapipe.SimOptions{Timeline: true, Memory: true})
	if err != nil {
		log.Fatal(err)
	}
	meastr, err := adapipe.ChromeTrace(measured)
	if err != nil {
		log.Fatal(err)
	}
	writeFile(*dir, "measured.trace.json", meastr)
	simtr, err := adapipe.ChromeTrace(simulated)
	if err != nil {
		log.Fatal(err)
	}
	writeFile(*dir, "simulated.trace.json", simtr)

	metrics := plan.Search.PromMetrics("adapipe_search")
	metrics = append(metrics, adapipe.SimMetrics("adapipe_sim", simulated)...)
	metrics = append(metrics, adapipe.TraceMetrics("adapipe_train", res.Trace)...)
	writeFile(*dir, "metrics.prom", []byte(adapipe.RenderProm(metrics)))
}

func writeFile(dir, name string, data []byte) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
