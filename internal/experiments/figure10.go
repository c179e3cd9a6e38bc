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

// SavesFromPlan converts a planner Plan into engine stage bounds and
// per-block SaveSpecs: for each stage and unit kind, the planner's saved
// count is assigned to the trailing blocks of that kind (which copies are
// saved is immaterial to both time and memory — all copies are isomorphic).
func SavesFromPlan(plan *core.Plan, seq []model.Layer) ([]int, [][]train.SaveSpec) {
	bounds := make([]int, 0, len(plan.Stages)+1)
	saves := make([][]train.SaveSpec, len(plan.Stages))
	unitKinds := map[model.LayerKind][]model.UnitKind{
		model.Attention: {model.UnitLayerNorm, model.UnitQProj, model.UnitKProj, model.UnitVProj, model.UnitCoreAttention},
		model.FFN:       {model.UnitLayerNorm, model.UnitFFNUp, model.UnitFFNGate, model.UnitFFNAct},
	}
	for si, st := range plan.Stages {
		bounds = append(bounds, st.LayerLo)
		// Collect the stage's blocks in order with their kinds.
		type blockRef struct {
			kind model.LayerKind
			idx  int // index within saves[si]
		}
		var blocks []blockRef
		for li := st.LayerLo; li < st.LayerHi; li++ {
			k := seq[li].Kind
			if k == model.Attention || k == model.FFN {
				blocks = append(blocks, blockRef{kind: k, idx: len(blocks)})
			}
		}
		specs := make([]train.SaveSpec, len(blocks))
		for i := range specs {
			specs[i] = train.SaveSpec{}
		}
		for kind, kinds := range unitKinds {
			// Blocks of this kind, in order.
			var of []int
			for _, b := range blocks {
				if b.kind == kind {
					of = append(of, b.idx)
				}
			}
			for _, uk := range kinds {
				key := kind.String() + "/" + uk.String()
				c := st.Saved[key]
				// Assign saved copies to the trailing blocks.
				for i := len(of) - c; i < len(of); i++ {
					if i >= 0 {
						specs[of[i]][uk] = true
					}
				}
			}
		}
		saves[si] = specs
	}
	bounds = append(bounds, plan.Stages[len(plan.Stages)-1].LayerHi)
	return bounds, saves
}

// Figure10Curve is one loss curve of the convergence validation.
type Figure10Curve struct {
	// Name is "DAPPLE-Full" or "AdaPipe".
	Name string
	// Losses is the per-step training loss.
	Losses []float64
}

// Figure10Config sizes the convergence run.
type Figure10Config struct {
	// Layers, Dim, Heads, FFN, Vocab, Seq size the micro-transformer.
	Layers, Dim, Heads, FFN, Vocab, Seq int
	// Stages is the pipeline depth.
	Stages int
	// MicroBatches is n per iteration.
	MicroBatches int
	// Steps is the iteration count (200 in the paper's Figure 10).
	Steps int
	// GatedFFN selects SwiGLU feed-forward blocks (Llama-2 style), mapped
	// through the planner's UnitFFNGate decisions.
	GatedFFN bool
	// LR is the Adam learning rate.
	LR float64
	// Seed seeds parameters and data.
	Seed uint64
}

// DefaultFigure10Config returns a configuration that trains in a few seconds
// while showing a clearly descending loss.
func DefaultFigure10Config() Figure10Config {
	return Figure10Config{
		Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 48,
		Stages: 2, MicroBatches: 8, Steps: 200, LR: 1e-3, Seed: 2024,
	}
}

// Figure10 trains the same micro-transformer twice — once as DAPPLE-Full
// (even partitioning, full recomputation) and once under a genuine AdaPipe
// plan (adaptive partitioning and per-stage save sets from the real search)
// — and returns both loss curves. AdaPipe only removes repeated computation,
// so with identical initialization the curves coincide exactly; the paper's
// curves differ only by initialization noise (§7.5).
func Figure10(fc Figure10Config) ([]Figure10Curve, error) {
	tcfg := train.Config{
		Layers: fc.Layers, Dim: fc.Dim, Heads: fc.Heads, FFN: fc.FFN,
		Vocab: fc.Vocab, Seq: fc.Seq, Seed: fc.Seed, GatedFFN: fc.GatedFFN,
	}
	mcfg := model.Config{
		Name: "fig10", DecoderLayers: fc.Layers, Hidden: fc.Dim, Heads: fc.Heads,
		KVHeads: fc.Heads, FFNHidden: fc.FFN, Vocab: fc.Vocab, BytesPerValue: 2,
		GatedFFN: fc.GatedFFN,
	}
	seq := mcfg.LayerSequence()
	strat := parallel.Strategy{TP: 1, PP: fc.Stages, DP: 1}
	trainCfg := parallel.Config{GlobalBatch: fc.MicroBatches, MicroBatch: 1, SeqLen: fc.Seq}

	// Plan AdaPipe against a toy device sized so early stages must
	// recompute while later stages can save.
	capacity, err := ToyCapacity(mcfg, strat, trainCfg, 0.6)
	if err != nil {
		return nil, err
	}
	opts := ToyOptions()
	opts.Recompute = core.RecomputeAdaptive
	opts.Partition = core.PartitionAdaptive
	planner, err := core.NewPlanner(mcfg, ToyCluster(fc.Stages, capacity), strat, trainCfg, opts)
	if err != nil {
		return nil, err
	}
	plan, err := planner.Plan()
	if err != nil {
		return nil, err
	}
	adaBounds, adaSaves := SavesFromPlan(plan, seq)

	// DAPPLE-Full: even bounds, every block fully recomputed.
	evenBounds := partition.Even(len(seq), fc.Stages)
	fullSaves := make([][]train.SaveSpec, fc.Stages)
	for s := 0; s < fc.Stages; s++ {
		blocks := countBlocks(seq, evenBounds[s], evenBounds[s+1])
		for i := 0; i < blocks; i++ {
			fullSaves[s] = append(fullSaves[s], train.SaveNone())
		}
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
			Net: tcfg, Bounds: r.bounds, Saves: r.saves,
			Steps: fc.Steps, MicroBatches: fc.MicroBatches, LR: fc.LR, DataSeed: fc.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 10 %s: %w", r.name, err)
		}
		out = append(out, Figure10Curve{Name: r.name, Losses: res.Losses})
	}
	return out, nil
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

func countBlocks(seq []model.Layer, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if seq[i].Kind == model.Attention || seq[i].Kind == model.FFN {
			n++
		}
	}
	return n
}
