package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchRun is one benchmark result in a BenchReport: the standard
// testing.Benchmark figures for a named workload.
type BenchRun struct {
	// Name identifies the workload, e.g. "PlanSearch/serial".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the per-iteration figures.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// BenchReport is the machine-readable planner-search benchmark record `make
// bench` writes to BENCH_planner.json and CI uploads as an artifact: the
// serial-vs-parallel wall times, the measured speedup, and the search-effort
// counters behind them. Field order (and hence the emitted JSON) is fixed, so
// two runs differ only where the measurements do.
type BenchReport struct {
	// Model and Shape describe the benchmarked search ("GPT-3 175B",
	// "L=194 p=8 n=32").
	Model string `json:"model"`
	Shape string `json:"shape"`
	// GoMaxProcs is the GOMAXPROCS setting every run of this report was
	// taken under — the ceiling on any real speedup. The suite runs once at
	// 1 and once at the host's CPU count.
	GoMaxProcs int `json:"gomaxprocs"`
	// Workers is the pool size of the parallel runs.
	Workers int `json:"workers"`
	// SpeedupParallel is serial ns/op divided by parallel ns/op.
	SpeedupParallel float64 `json:"speedup_parallel"`
	// ReplanNsPerOp is the cold ReplanWithScale latency in ns/op: the
	// incremental state is dropped before every round, so each one pays the
	// full re-search. Promoted out of Runs so dashboards and diffs read it
	// without scanning the run list.
	ReplanNsPerOp int64 `json:"replan_ns_per_op"`
	// ReplanIncrementalNsPerOp is the warm-started replan latency in ns/op —
	// the planner keeps its partition-DP memo and iso-cache between rounds,
	// so only the levels the scale change touched are recomputed. This is
	// the straggler-reaction number the ROADMAP tracks toward its
	// sub-millisecond target. Zero in reports written before the field
	// existed.
	ReplanIncrementalNsPerOp int64 `json:"replan_incremental_ns_per_op"`
	// SpeedupReplanIncremental is cold replan ns/op divided by incremental
	// replan ns/op.
	SpeedupReplanIncremental float64 `json:"speedup_replan_incremental"`
	// SweepColdNsPerPoint is the per-point latency of a grid sweep against a
	// fresh cost store: every point pays its own knapsack work. Zero in
	// reports written before the cost store existed.
	SweepColdNsPerPoint int64 `json:"sweep_cold_ns_per_point"`
	// SweepWarmNsPerPoint is the per-point latency of the same grid against a
	// store prewarmed by one point of the family — the amortized cost a
	// /v1/sweep pays after its first point. Zero in older reports.
	SweepWarmNsPerPoint int64 `json:"sweep_warm_ns_per_point"`
	// SpeedupSweepWarm is cold sweep ns/point divided by warm sweep ns/point —
	// the measured amortization the shared cost store buys a grid.
	SpeedupSweepWarm float64 `json:"speedup_sweep_warm"`
	// KnapsackRuns and CacheHitRate are the search-effort counters of one
	// full search (parallel mode), tying the wall-time figures to the work
	// they bought.
	KnapsackRuns int     `json:"knapsack_runs"`
	CacheHitRate float64 `json:"iso_cache_hit_rate"`
	// Runs holds the individual benchmark results.
	Runs []BenchRun `json:"runs"`
}

// WriteBenchJSON writes the reports — one per GOMAXPROCS setting the suite
// ran under, each naming its own — to path as an indented JSON array with a
// trailing newline.
func WriteBenchJSON(path string, reports []BenchReport) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding bench report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchJSON reads the reports previously written by WriteBenchJSON; a
// file from before the suite ran at more than one GOMAXPROCS holds a single
// report object and reads as a list of one. Reports from older builds may
// lack newer fields, which decode to zero — regression gates must treat a
// zero baseline as "not recorded", not "was instantaneous".
func ReadBenchJSON(path string) ([]BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []BenchReport
	if err := json.Unmarshal(data, &reports); err != nil {
		var one BenchReport
		if json.Unmarshal(data, &one) != nil {
			return nil, fmt.Errorf("obs: decoding bench report %s: %w", path, err)
		}
		reports = []BenchReport{one}
	}
	return reports, nil
}
