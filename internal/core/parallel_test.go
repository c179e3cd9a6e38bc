package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// tinyPlanner builds a planner over a Tiny model for differential and
// concurrency tests. decoders controls the layer-sequence length
// (2*decoders + 2), pp the stage count, n the micro-batch count.
func tinyPlanner(t testing.TB, decoders, pp, n int, reserve float64, part PartitionMode, workers int) *Planner {
	t.Helper()
	cfg := model.Tiny(decoders)
	cl := hardware.ClusterA()
	strat := parallel.Strategy{TP: 1, PP: pp, DP: 1}
	train := parallel.Config{GlobalBatch: n, MicroBatch: 1, SeqLen: 2048}
	opts := DefaultOptions()
	opts.MemoryReserve = reserve
	opts.Recompute = RecomputeAdaptive
	opts.Partition = part
	opts.Workers = workers
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatalf("planner (L=%d p=%d): %v", 2*decoders+2, pp, err)
	}
	return pl
}

// TestParallelPlanMatchesSerial is the tentpole's differential harness: over a
// matrix of model sizes, stage counts, micro-batch counts, memory budgets and
// partition modes, the plan produced with Workers=2/4/8 must serialize to the
// exact bytes the serial (Workers=1) search produces. Parallelism may change
// wall time and search-effort counters, never the plan.
func TestParallelPlanMatchesSerial(t *testing.T) {
	type cfg struct {
		decoders, pp, n int
		reserve         float64
		part            PartitionMode
	}
	var cases []cfg
	for _, part := range []PartitionMode{PartitionAdaptive, PartitionExact, PartitionEven} {
		cases = append(cases,
			cfg{decoders: 3, pp: 2, n: 4, reserve: 0.15, part: part},
			cfg{decoders: 6, pp: 4, n: 8, reserve: 0.15, part: part},
			cfg{decoders: 6, pp: 4, n: 16, reserve: 0.60, part: part},
			cfg{decoders: 15, pp: 8, n: 16, reserve: 0.15, part: part},
		)
	}
	// Degenerate shape: every stage gets exactly one layer (L == p).
	cases = append(cases, cfg{decoders: 3, pp: 8, n: 8, reserve: 0.15, part: PartitionAdaptive})

	for _, c := range cases {
		c := c
		name := fmt.Sprintf("L%d_p%d_n%d_r%.2f_%s", 2*c.decoders+2, c.pp, c.n, c.reserve, c.part)
		t.Run(name, func(t *testing.T) {
			serial, serialErr := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part, 1).Plan()
			var want []byte
			if serialErr == nil {
				var err error
				want, err = json.Marshal(serial)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				pl := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part, workers)
				p, err := pl.Plan()
				if (err == nil) != (serialErr == nil) {
					t.Fatalf("workers=%d: error %v, serial error %v", workers, err, serialErr)
				}
				if err != nil {
					continue
				}
				got, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: plan differs from serial\nserial:   %s\nparallel: %s", workers, want, got)
				}
				if p.Search.Workers != workers {
					t.Errorf("workers=%d: SearchStats.Workers = %d", workers, p.Search.Workers)
				}
				// Table fills + hits never exceed lookups: every prefill
				// task a worker wins counts as one lookup and fills at most
				// one table; the siblings it publishes count for nothing.
				if s := pl.Stats; s.KnapsackRuns+s.CacheHits > s.CostEvaluations {
					t.Errorf("workers=%d: stats invariant broken: runs %d + hits %d > evals %d",
						workers, s.KnapsackRuns, s.CacheHits, s.CostEvaluations)
				}
			}
		})
	}
}

// TestParallelPlanMatchesSerialGPT3 runs the differential check once on the
// paper's real GPT-3 search, where the iso-cache and GCD reduction actually
// bite, so the byte-identity claim is not only exercised on toy shapes.
func TestParallelPlanMatchesSerialGPT3(t *testing.T) {
	if testing.Short() {
		t.Skip("two full GPT-3 searches")
	}
	cfg, cl, strat, train := gptSetup()
	run := func(workers int) []byte {
		opts := DefaultOptions()
		opts.Partition = PartitionAdaptive
		opts.Workers = workers
		pl, err := NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Error("GPT-3 parallel plan differs from serial")
	}
}

// TestParallelSpeedupReporting checks the wall-clock telemetry the parallel
// search adds: a parallel run records its worker count and busy/wall figures,
// and the Describe/Prometheus surfaces expose them.
func TestParallelSpeedupReporting(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive, 4)
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	s := pl.Stats
	if s.Workers != 4 {
		t.Errorf("Workers = %d, want 4", s.Workers)
	}
	if s.ParallelWall <= 0 || s.ParallelBusy <= 0 {
		t.Errorf("parallel wall/busy not recorded: %v / %v", s.ParallelWall, s.ParallelBusy)
	}
	if sp := s.ParallelSpeedup(); sp <= 0 {
		t.Errorf("ParallelSpeedup = %g", sp)
	}
	found := false
	for _, m := range s.PromMetrics("adapipe_search") {
		if m.Name == "adapipe_search_parallel_speedup" && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("parallel speedup gauge missing from PromMetrics")
	}
	// The serial path reports Workers=1 and a neutral speedup.
	pl1 := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive, 1)
	if _, err := pl1.Plan(); err != nil {
		t.Fatal(err)
	}
	if pl1.Stats.Workers != 1 {
		t.Errorf("serial Workers = %d", pl1.Stats.Workers)
	}
	if sp := pl1.Stats.ParallelSpeedup(); sp != 1 {
		t.Errorf("serial ParallelSpeedup = %g, want 1", sp)
	}
}
