package experiments

import (
	"fmt"
	"strings"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// AccuracyRow compares the §5.1 analytical cost model against the
// discrete-event simulator for one configuration.
type AccuracyRow struct {
	// Config labels the point.
	Config string
	// Modeled is the planner's W+E+(n−p)M prediction (communication-free).
	Modeled float64
	// Simulated is the dependency-exact makespan (with communication).
	Simulated float64
	// GapPct is (Simulated/Modeled − 1)·100.
	GapPct float64
}

// ModelAccuracy quantifies the §5.1 claim of an "accurate cost model" for
// the 1F1B scheduling mechanism: across the evaluation configurations, the
// model's predicted iteration time is compared with the simulator's
// dependency-exact execution (which additionally charges point-to-point
// communication, so the model should sit slightly below).
func ModelAccuracy() ([]AccuracyRow, error) {
	cl := hardware.ClusterA()
	type point struct {
		name  string
		cfg   model.Config
		strat parallel.Strategy
		train parallel.Config
		meth  string
	}
	points := []point{
		{"GPT-3 4096 (8,8,1) AdaPipe", model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1},
			parallel.Config{GlobalBatch: 128, MicroBatch: 1, SeqLen: 4096}, "AdaPipe"},
		{"GPT-3 16384 (8,8,1) AdaPipe", model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1},
			parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}, "AdaPipe"},
		{"GPT-3 16384 (8,8,1) Even", model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1},
			parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}, "Even Partitioning"},
		{"GPT-3 16384 (8,4,2) DAPPLE-Full", model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 4, DP: 2},
			parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}, "DAPPLE-Full"},
		{"Llama2 8192 (8,2,2) AdaPipe", model.Llama2_70B(), parallel.Strategy{TP: 8, PP: 2, DP: 2},
			parallel.Config{GlobalBatch: 64, MicroBatch: 1, SeqLen: 8192}, "AdaPipe"},
		{"Llama2 4096 (4,8,1) AdaPipe", model.Llama2_70B(), parallel.Strategy{TP: 4, PP: 8, DP: 1},
			parallel.Config{GlobalBatch: 128, MicroBatch: 1, SeqLen: 4096}, "AdaPipe"},
	}
	var out []AccuracyRow
	for _, pt := range points {
		m, err := baseline.MethodByName(pt.meth)
		if err != nil {
			return nil, err
		}
		o := baseline.Evaluate(m, pt.cfg, cl, pt.strat, pt.train, core.DefaultOptions())
		if !o.Feasible() {
			return nil, fmt.Errorf("experiments: accuracy point %q infeasible (%v)", pt.name, o.Err)
		}
		out = append(out, AccuracyRow{
			Config:    pt.name,
			Modeled:   o.Plan.Total,
			Simulated: o.IterTime,
			GapPct:    (o.IterTime/o.Plan.Total - 1) * 100,
		})
	}
	return out, nil
}

// FormatAccuracy renders the accuracy table.
func FormatAccuracy(rows []AccuracyRow) string {
	var b strings.Builder
	b.WriteString("Cost-model accuracy: §5.1 prediction vs. discrete-event simulation\n")
	fmt.Fprintf(&b, "  %-36s %10s %10s %8s\n", "configuration", "modeled", "simulated", "gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s %9.2fs %9.2fs %+7.2f%%\n", r.Config, r.Modeled, r.Simulated, r.GapPct)
	}
	return b.String()
}
