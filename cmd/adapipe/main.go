// Command adapipe runs the AdaPipe search engine for a model and cluster,
// prints the resulting per-stage plan (layer ranges, save/recompute sets,
// memory breakdown), and optionally simulates it and renders the timeline.
//
// Examples:
//
//	adapipe -model gpt3 -tp 8 -pp 8 -dp 1 -seq 16384 -gbs 32
//	adapipe -model llama2 -cluster b -tp 4 -pp 8 -dp 4 -seq 4096 -gbs 256
//	adapipe -model gpt3 -seq 4096 -gbs 128 -sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"adapipe"
)

func main() {
	var (
		modelName = flag.String("model", "gpt3", "model: gpt3, llama2, or tiny")
		cluster   = flag.String("cluster", "a", "cluster: a (64×A100), b (256×Ascend 910) or b-large (2048×Ascend 910)")
		tp        = flag.Int("tp", 8, "tensor-parallel size")
		pp        = flag.Int("pp", 8, "pipeline-parallel size")
		dp        = flag.Int("dp", 1, "data-parallel size")
		seq       = flag.Int("seq", 4096, "sequence length")
		gbs       = flag.Int("gbs", 128, "global batch size")
		mbs       = flag.Int("mbs", 1, "micro-batch size")
		method    = flag.String("method", "AdaPipe", "method: AdaPipe, Even Partitioning, DAPPLE-Full, DAPPLE-Non, Chimera-*, ChimeraD-*")
		sweep     = flag.Bool("sweep", false, "sweep all 3D strategies for the device count and report the best")
		devices   = flag.Int("devices", 64, "device count for -sweep")
		gantt     = flag.Bool("gantt", false, "render the simulated timeline")
		out       = flag.String("o", "", "write the plan as JSON to this file")
		memcsv    = flag.String("memcsv", "", "write the per-device memory timeline as CSV to this file")
		traceOut  = flag.String("trace", "", "write the simulated timeline as Chrome-trace JSON (chrome://tracing, Perfetto) to this file")
		metrics   = flag.String("metrics", "", "write search and simulation metrics in Prometheus text format to this file")
	)
	flag.Parse()

	// All planning flows through the versioned request schema — the same
	// schema the adapiped daemon serves — so the flag surface and the HTTP
	// surface cannot drift.
	rs, err := adapipe.PlanRequest{
		Model:       *modelName,
		Cluster:     *cluster,
		Method:      *method,
		TP:          *tp,
		PP:          *pp,
		DP:          *dp,
		SeqLen:      *seq,
		GlobalBatch: *gbs,
		MicroBatch:  *mbs,
	}.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	meth, cl, strat := rs.Method, rs.Cluster, rs.Strategy

	if *sweep {
		best, all := adapipe.Best(meth, rs.Model, cl, *devices, rs.Training, rs.Options)
		fmt.Printf("%d candidate strategies evaluated for %d devices:\n", len(all), *devices)
		for _, o := range all {
			if o.Feasible() {
				fmt.Printf("  %-11s %9.3fs  peak %5.1f GiB\n", o.Strategy, o.IterTime, gib(o.Sim.MaxPeakMem()))
			} else if o.OOM {
				fmt.Printf("  %-11s %9s\n", o.Strategy, "OOM")
			} else {
				fmt.Printf("  %-11s skipped (%v)\n", o.Strategy, o.Err)
			}
		}
		if !best.Feasible() {
			fatalf("no feasible strategy for %s", meth.Name)
		}
		fmt.Printf("\nbest strategy: %s (%.3fs)\n\n", best.Strategy, best.IterTime)
		fmt.Print(adapipe.Describe(best.Plan))
		return
	}

	o := rs.Evaluate(context.Background())
	if o.Err != nil {
		fatalf("%v", o.Err)
	}
	if o.Plan == nil {
		fatalf("%s is infeasible (OOM) at %s", meth.Name, strat)
	}
	fmt.Print(adapipe.Describe(o.Plan))
	if o.OOM {
		fmt.Printf("WARNING: simulated peak %.1f GiB exceeds device capacity %.1f GiB\n",
			gib(o.Sim.MaxPeakMem()), gib(cl.Device.MemCapacity))
	}
	fmt.Printf("simulated iteration: %.3fs, bubble ratio %.3f, peak memory %.1f GiB\n",
		o.Sim.IterTime, o.Sim.BubbleRatio(), gib(o.Sim.MaxPeakMem()))
	if *out != "" {
		data, err := json.Marshal(o.Plan)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote plan to %s\n", *out)
	}
	if *gantt {
		res, err := adapipe.Simulate(o.Plan, meth.Schedule, true)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(adapipe.Gantt(res, strat.PP, 100))
	}
	if *memcsv != "" {
		res, err := adapipe.SimulateWithOptions(o.Plan, meth.Schedule, adapipe.SimOptions{Memory: true})
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*memcsv, []byte(adapipe.MemoryCSV(res)), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote memory timeline to %s\n", *memcsv)
	}
	if *traceOut != "" {
		res, err := adapipe.Simulate(o.Plan, meth.Schedule, true)
		if err != nil {
			fatalf("%v", err)
		}
		data, err := adapipe.ChromeTrace(res)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
	if *metrics != "" {
		ms := o.Plan.Search.PromMetrics("adapipe_search")
		ms = append(ms, adapipe.SimMetrics("adapipe_sim", o.Sim)...)
		if err := os.WriteFile(*metrics, []byte(adapipe.RenderProm(ms)), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote metrics to %s\n", *metrics)
	}
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adapipe: "+format+"\n", args...)
	os.Exit(1)
}
