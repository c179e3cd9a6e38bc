package train

import (
	"testing"

	"adapipe/internal/model"
	"adapipe/internal/tensor"
)

// figure10Net is the convergence run's net (experiments'
// DefaultFigure10Config): the shape the deviation table is measured at. One
// [Seq, Dim] tensor of it is 24 576 B.
var figure10Net = Config{Layers: 4, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: 48, Seed: 2024}

// deviation is one known difference, at figure10Net, between the bytes the
// model declares for a unit (model.Config.SavedBytes at one sequence per
// micro-batch, no tensor parallelism, 8-byte values) and the bytes the
// executor pins for it.
type deviation struct {
	declared, executor int64
	cause              string
}

// deviations is every known departure of the executor from the model's unit
// declarations; a unit without a row pins exactly what is declared. DESIGN §12
// lists the steps that empty this table.
var deviations = map[model.UnitKind]deviation{
	model.UnitCoreAttention: {25_344, 98_304, "per-head T×T softmax probabilities, where the declaration prices FlashAttention's fp32 log-sum-exp"},
	model.UnitLayerNorm:     {24_576, 49_536, "the statistics xhat and rstd, kept beside the declared output"},
	model.UnitHeadNorm:      {24_576, 49_536, "the statistics xhat and rstd, kept beside the declared output"},
}

// boundaryDeviation is the one departure that is not a unit's: a layer's
// output (model.Config.HiddenBytes), which the plan charges to the stage
// that computes it, is pinned by the receiving stage instead, as its input.
var boundaryDeviation = deviation{24_576, 0, "pinned by the receiving stage as its input, not by the sending stage"}

// pinnedFor returns the bytes the executor must pin for unit k on figure 10's
// net, plain or gated (m): what the model declares, shifted by k's deviation
// row, which it marks matched.
func pinnedFor(t *testing.T, m model.Config, k model.UnitKind, matched map[model.UnitKind]bool) int64 {
	t.Helper()
	declared := m.SavedBytes(k, 1, figure10Net.Seq, 1)
	dev, ok := deviations[k]
	if !ok {
		return declared
	}
	if declared != dev.declared {
		t.Errorf("%v: the model declares %d B, the deviation table %d B", k, declared, dev.declared)
	}
	matched[k] = true
	return declared + dev.executor - dev.declared
}

// gatedFigure10Net is figure10Net with SwiGLU blocks.
func gatedFigure10Net() Config {
	cfg := figure10Net
	cfg.GatedFFN = true
	return cfg
}

// uniformSaves gives every layer of every stage the same SaveSpec.
func uniformSaves(bounds []int, spec SaveSpec) [][]SaveSpec {
	saves := make([][]SaveSpec, len(bounds)-1)
	for s := range saves {
		for range bounds[s+1] - bounds[s] {
			saves[s] = append(saves[s], spec)
		}
	}
	return saves
}

// TestStagesPinWhatTheModelDeclares holds every stage of figure 10's net,
// plain and gated, split at {0, 5, 10}, to the model's declarations: under
// save-all and save-none, the matrices one micro-batch's forward leaves
// pinned are exactly the declared bytes of the units the stage keeps,
// shifted by the deviation table's rows and the boundary deviation.
func TestStagesPinWhatTheModelDeclares(t *testing.T) {
	bounds := []int{0, 5, 10}
	// shift is what the boundary deviation moves onto a sending stage.
	shift := boundaryDeviation.executor - boundaryDeviation.declared
	matched := map[model.UnitKind]bool{}
	for _, cfg := range []Config{figure10Net, gatedFigure10Net()} {
		m := cfg.Model()
		if out := m.HiddenBytes(1, cfg.Seq, 1); out != boundaryDeviation.declared {
			t.Errorf("a layer's output is declared at %d B, the boundary deviation at %d B", out, boundaryDeviation.declared)
		}
		seq := m.LayerSequence()
		batch := NewCorpus(cfg.Vocab, 1<<10, 1).Batches(1, cfg.Seq, tensor.NewRNG(1))[0]
		for name, spec := range map[string]SaveSpec{"saveall": SaveAll(), "savenone": SaveNone()} {
			stages, err := Split(mustNet(cfg), bounds, uniformSaves(bounds, spec))
			if err != nil {
				t.Fatal(err)
			}
			var x *tensor.Mat
			for s, st := range stages {
				var ctx *StageCtx
				x, ctx = st.Forward(batch.Tokens, x)
				var want int64
				for _, l := range seq[bounds[s]:bounds[s+1]] {
					for _, u := range m.Units(l.Kind) {
						if u.AlwaysSaved || spec.Has(u.Kind) {
							want += pinnedFor(t, m, u.Kind, matched)
						}
					}
				}
				if s < len(stages)-1 {
					want += shift
				}
				if s > 0 {
					want -= shift
				}
				got := pinnedBytes(ctx)
				t.Logf("gated=%v %s stage %d: %d B pinned", cfg.GatedFFN, name, s, got)
				if got != want {
					t.Errorf("gated=%v %s stage %d: the executor pins %d B, the declarations and deviations %d B",
						cfg.GatedFFN, name, s, got, want)
				}
			}
		}
	}
	if len(matched) != len(deviations) {
		t.Errorf("the stages exercised %d of the %d rows of the deviation table: %v", len(matched), len(deviations), matched)
	}
}
