package memory

import (
	"testing"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/profile"
)

func setup(t *testing.T, strat parallel.Strategy, seq int) (model.Config, *profile.Profile) {
	t.Helper()
	cfg := model.GPT3_175B()
	p, err := profile.NewWithComm(cfg, hardware.A100(), strat, seq, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, p
}

func TestInFlight(t *testing.T) {
	// 1F1B: stage s of p holds p−s micro-batches (§2.1).
	cases := []struct{ p, s, want int }{
		{8, 0, 8}, {8, 7, 1}, {4, 2, 2}, {1, 0, 1},
		{4, -1, 0}, {4, 4, 0},
	}
	for _, c := range cases {
		if got := InFlight(c.p, c.s); got != c.want {
			t.Errorf("InFlight(%d, %d) = %d, want %d", c.p, c.s, got, c.want)
		}
	}
}

func TestBreakdownTotals(t *testing.T) {
	b := Breakdown{Params: 10, Grads: 20, Optimizer: 30, Buffer: 5, Overhead: 2, SavedPerMicro: 7, InFlight: 3}
	if got := b.Static(); got != 67 {
		t.Errorf("Static = %d, want 67", got)
	}
	if got := b.Activations(); got != 21 {
		t.Errorf("Activations = %d, want 21", got)
	}
	if got := b.Total(); got != 88 {
		t.Errorf("Total = %d, want 88", got)
	}
}

func TestStageStaticScaling(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 2}
	cfg, prof := setup(t, strat, 4096)
	layers := cfg.LayerSequence()[1:25]
	opts := Default()
	b := StageStatic(cfg, prof, strat, layers, opts)
	n := StageParams(cfg, layers)
	if b.Params != 2*n/8 {
		t.Errorf("params = %d, want %d", b.Params, 2*n/8)
	}
	if b.Grads != 2*n/8 {
		t.Errorf("grads = %d, want %d", b.Grads, 2*n/8)
	}
	if b.Optimizer != 12*n/16 {
		t.Errorf("optimizer = %d, want %d (ZeRO-1 shards over t*d)", b.Optimizer, 12*n/16)
	}
	if b.Overhead != opts.OverheadBytes {
		t.Errorf("overhead = %d, want %d", b.Overhead, opts.OverheadBytes)
	}

	// Doubling DP halves only the optimizer states.
	strat2 := parallel.Strategy{TP: 8, PP: 8, DP: 4}
	b2 := StageStatic(cfg, prof, strat2, layers, opts)
	if b2.Optimizer*2 != b.Optimizer {
		t.Errorf("doubling DP: optimizer %d -> %d, want halved", b.Optimizer, b2.Optimizer)
	}
	if b2.Params != b.Params || b2.Grads != b.Grads {
		t.Error("doubling DP must not change params/grads")
	}
}

func TestSavedOrdering(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 1}
	cfg, prof := setup(t, strat, 4096)
	layers := cfg.LayerSequence()[1:9] // 4 decoder blocks
	all := SavedAll(prof, layers)
	boundary := SavedBoundary(prof, layers)
	// AdaPipe's maximum-recomputation floor keeps the AlwaysSaved units,
	// slightly above classic full recomputation (§7.3).
	var min int64
	for _, l := range layers {
		min += prof.Layers[l.Kind].SavedBytesMin
	}
	if !(all > min && min > boundary && boundary > 0) {
		t.Errorf("want all (%d) > min (%d) > boundary (%d) > 0", all, min, boundary)
	}
}

func TestRecomputeBuffer(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 1}
	cfg, prof := setup(t, strat, 4096)
	seq := cfg.LayerSequence()
	// A stage with both layer kinds buffers one full decoder block.
	both := RecomputeBuffer(prof, seq[1:5])
	want := prof.Layers[model.Attention].SavedBytesAll + prof.Layers[model.FFN].SavedBytesAll
	if both != want {
		t.Errorf("buffer = %d, want %d", both, want)
	}
	// Embedding-only ranges need no buffer.
	if got := RecomputeBuffer(prof, seq[:1]); got != 0 {
		t.Errorf("embedding-only buffer = %d, want 0", got)
	}
	// Buffer does not grow with more layers of the same kinds.
	if RecomputeBuffer(prof, seq[1:21]) != both {
		t.Error("buffer must not grow with layer count (it is reused across layers)")
	}
}

// stage is the full breakdown of stage s given the activation bytes pinned
// per micro-batch: the static part plus s's in-flight activations.
func stage(cfg model.Config, prof *profile.Profile, strat parallel.Strategy, layers []model.Layer, s int, savedPerMicro int64, opts Options) Breakdown {
	b := StageStatic(cfg, prof, strat, layers, opts)
	b.SavedPerMicro, b.InFlight = savedPerMicro, InFlight(strat.PP, s)
	return b
}

func TestStageBreakdownInFlight(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 1}
	cfg, prof := setup(t, strat, 4096)
	layers := cfg.LayerSequence()[1:25]
	b0 := stage(cfg, prof, strat, layers, 0, 1<<20, Default())
	b7 := stage(cfg, prof, strat, layers, 7, 1<<20, Default())
	if b0.InFlight != 8 || b7.InFlight != 1 {
		t.Errorf("in-flight = %d/%d, want 8/1", b0.InFlight, b7.InFlight)
	}
	if b0.Total()-b0.Static() != 8<<20 {
		t.Errorf("stage 0 activations = %d, want %d", b0.Total()-b0.Static(), 8<<20)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.ParamBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero param bytes accepted")
	}
	bad = Default()
	bad.OverheadBytes = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
}

// TestFigure1Shape verifies the motivating observation of §1: without
// recomputation the per-stage memory need decreases with the stage id and
// overflows an 80 GiB device at long sequence lengths, while full
// recomputation stays far below the limit.
func TestFigure1Shape(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 1}
	cfg, prof := setup(t, strat, 16384)
	seq := cfg.LayerSequence()
	per := len(seq) / 8
	var nonTotals []int64
	for s := 0; s < 8; s++ {
		layers := seq[s*per : (s+1)*per]
		saved := SavedAll(prof, layers)
		b := stage(cfg, prof, strat, layers, s, saved, Default())
		nonTotals = append(nonTotals, b.Total())
	}
	for s := 1; s < 8; s++ {
		if nonTotals[s] >= nonTotals[s-1] {
			t.Errorf("no-recompute memory should decrease with stage: stage %d %d >= stage %d %d",
				s, nonTotals[s], s-1, nonTotals[s-1])
		}
	}
	if nonTotals[0] <= 80<<30 {
		t.Errorf("stage 0 without recomputation = %d, want > 80 GiB at seq 16384", nonTotals[0])
	}
	full := stage(cfg, prof, strat, seq[:per], 0, SavedBoundary(prof, seq[:per]), Default())
	if full.Total() >= 80<<30 {
		t.Errorf("full recomputation = %d, want < 80 GiB", full.Total())
	}
}
