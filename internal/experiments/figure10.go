package experiments

import (
	"fmt"
	"math"
	"strings"

	"adapipe/internal/core"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/partition"
	"adapipe/internal/train"
)

// Figure10Curve is one loss curve of the convergence validation.
type Figure10Curve struct {
	// Name is "DAPPLE-Full" or "AdaPipe".
	Name string
	// Losses is the per-step training loss.
	Losses []float64
}

// Figure10Config sizes the convergence run.
type Figure10Config struct {
	// Config sizes the micro-transformer (GatedFFN selects SwiGLU blocks,
	// mapped through the planner's UnitFFNGate decisions) and seeds its
	// parameters and data.
	train.Config
	// Stages is the pipeline depth.
	Stages int
	// MicroBatches is n per iteration.
	MicroBatches int
	// Steps is the iteration count (200 in the paper's Figure 10).
	Steps int
	// LR is the Adam learning rate.
	LR float64
}

// DefaultFigure10Config returns a configuration that trains in a few seconds
// while showing a clearly descending loss.
func DefaultFigure10Config() Figure10Config {
	return Figure10Config{
		Config: train.Config{Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 48, Seed: 2024},
		Stages: 2, MicroBatches: 8, Steps: 200, LR: 1e-3,
	}
}

// Figure10 trains the same micro-transformer twice — once as DAPPLE-Full
// (even partitioning, full recomputation) and once under a genuine AdaPipe
// plan (adaptive partitioning and per-stage save sets from the real search)
// — and returns both loss curves. AdaPipe only removes repeated computation,
// so with identical initialization the curves coincide exactly; the paper's
// curves differ only by initialization noise (§7.5).
func Figure10(fc Figure10Config) ([]Figure10Curve, error) {
	mcfg := fc.Model()
	plan, err := figure10Plan(fc, core.RecomputeAdaptive)
	if err != nil {
		return nil, err
	}
	adaBounds := plan.Bounds()
	adaSaves, err := train.StageSaves(mcfg, adaBounds, plan.SavedCount)
	if err != nil {
		return nil, err
	}

	// DAPPLE-Full: even bounds, no optional unit of a decoder block saved;
	// the head keeps its LayerNorm, as the planner's full policy prices it.
	evenBounds := partition.Even(len(mcfg.LayerSequence()), fc.Stages)
	fullSaves, err := train.StageSaves(mcfg, evenBounds, func(_ int, kind model.LayerKind, _ model.UnitKind) int {
		if kind == model.Head {
			return 1
		}
		return 0
	})
	if err != nil {
		return nil, err
	}

	runs := []struct {
		name   string
		bounds []int
		saves  [][]train.SaveSpec
	}{
		{"DAPPLE-Full", evenBounds, fullSaves},
		{"AdaPipe", adaBounds, adaSaves},
	}
	var out []Figure10Curve
	for _, r := range runs {
		res, err := train.Run(train.RunConfig{
			Net: fc.Config, Bounds: r.bounds, Saves: r.saves,
			Steps: fc.Steps, MicroBatches: fc.MicroBatches, LR: fc.LR, DataSeed: fc.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 10 %s: %w", r.name, err)
		}
		out = append(out, Figure10Curve{Name: r.name, Losses: res.Losses})
	}
	return out, nil
}

// figure10Plan plans fc's net with adaptive partitioning against a toy
// device sized so early stages must recompute while later stages can save.
// mode is the recompute policy (AdaPipe's is RecomputeAdaptive); the device
// does not hold a plan that saves everything, so the fixed policies are
// planned past its memory limit.
func figure10Plan(fc Figure10Config, mode core.RecomputeMode) (*core.Plan, error) {
	mcfg := fc.Model()
	strat := parallel.Strategy{TP: 1, PP: fc.Stages, DP: 1}
	trainCfg := parallel.Config{GlobalBatch: fc.MicroBatches, MicroBatch: 1, SeqLen: fc.Seq}
	capacity, err := ToyCapacity(mcfg, strat, trainCfg, 0.6)
	if err != nil {
		return nil, err
	}
	opts := ToyOptions()
	opts.Recompute = mode
	opts.Partition = core.PartitionAdaptive
	opts.IgnoreMemoryLimit = true
	planner, err := core.NewPlanner(mcfg, ToyCluster(fc.Stages, capacity), strat, trainCfg, opts)
	if err != nil {
		return nil, err
	}
	return planner.Plan()
}

// MaxCurveGap returns the largest absolute per-step difference between two
// loss curves.
func MaxCurveGap(a, b Figure10Curve) float64 {
	var m float64
	for i := range a.Losses {
		if d := math.Abs(a.Losses[i] - b.Losses[i]); d > m {
			m = d
		}
	}
	return m
}

// FormatFigure10 renders sampled points of both loss curves.
func FormatFigure10(curves []Figure10Curve) string {
	var b strings.Builder
	b.WriteString("Figure 10: Loss curves (synthetic corpus)\n")
	if len(curves) == 0 {
		return b.String()
	}
	steps := len(curves[0].Losses)
	fmt.Fprintf(&b, "  %-6s", "step")
	for _, c := range curves {
		fmt.Fprintf(&b, " %14s", c.Name)
	}
	b.WriteString("\n")
	for i := 0; i < steps; i += 25 {
		fmt.Fprintf(&b, "  %-6d", i)
		for _, c := range curves {
			fmt.Fprintf(&b, " %14.4f", c.Losses[i])
		}
		b.WriteString("\n")
	}
	last := steps - 1
	fmt.Fprintf(&b, "  %-6d", last)
	for _, c := range curves {
		fmt.Fprintf(&b, " %14.4f", c.Losses[last])
	}
	b.WriteString("\n")
	if len(curves) == 2 {
		fmt.Fprintf(&b, "  max |Δloss| between curves: %.3g\n", MaxCurveGap(curves[0], curves[1]))
	}
	return b.String()
}
