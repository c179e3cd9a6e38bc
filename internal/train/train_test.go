package train

import (
	"math"
	"testing"
	"testing/quick"

	"adapipe/internal/model"
	"adapipe/internal/tensor"
)

func tinyNet(t *testing.T, layers int, seed uint64) *Net {
	t.Helper()
	n, err := NewNet(Config{Layers: layers, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// cloneGrads snapshots every parameter gradient of a stage list.
func cloneGrads(stages []*Stage) [][]float64 {
	var out [][]float64
	for _, s := range stages {
		for _, p := range s.Params() {
			out = append(out, append([]float64(nil), p.G.Data...))
		}
	}
	return out
}

func zeroGrads(stages []*Stage) {
	for _, s := range stages {
		for _, p := range s.Params() {
			p.G.Zero()
		}
	}
}

// runOnce performs one forward+backward of a single micro-batch through a
// stage chain and returns the loss.
func runOnce(t *testing.T, stages []*Stage, tokens, targets []int) float64 {
	t.Helper()
	var x *tensor.Mat
	ctxs := make([]*StageCtx, len(stages))
	for i, s := range stages {
		x, ctxs[i] = s.Forward(tokens, x)
	}
	loss, dy := CrossEntropy(&stages[len(stages)-1].arena, x, targets)
	for i := len(stages) - 1; i >= 0; i-- {
		dy = stages[i].Backward(ctxs[i], dy)
	}
	return loss
}

// TestRecomputationIsExact is the central invariant of §7.5: dropping and
// replaying activations must leave every gradient bit-identical, for every
// random save/recompute configuration.
func TestRecomputationIsExact(t *testing.T) {
	f := func(masks [4]uint16, seed uint16) bool {
		cfg := Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, GatedFFN: seed%2 == 1, Seed: uint64(seed) + 1}
		net, netRef := mustNet(cfg), mustNet(cfg)

		// Random per-block save sets: each mask bit is one unit kind.
		saves := make([][]SaveSpec, 1)
		for _, m := range masks {
			saves[0] = append(saves[0], SaveSpec(m))
		}
		stages, err := Split(net, []int{0, 6}, saves)
		if err != nil {
			return false
		}
		ref, err := Split(netRef, []int{0, 6}, nil) // save everything
		if err != nil {
			return false
		}
		corpus := NewCorpus(20, 4096, 5)
		rng := tensor.NewRNG(uint64(seed)*31 + 7)
		tokens, targets := corpus.Sample(12, rng)

		l1 := runOnceQuick(stages, tokens, targets)
		l2 := runOnceQuick(ref, tokens, targets)
		if l1 != l2 {
			return false
		}
		g1 := cloneGrads(stages)
		g2 := cloneGrads(ref)
		for i := range g1 {
			for j := range g1[i] {
				if g1[i][j] != g2[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func mustNet(cfg Config) *Net {
	n, err := NewNet(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

func runOnceQuick(stages []*Stage, tokens, targets []int) float64 {
	var x *tensor.Mat
	ctxs := make([]*StageCtx, len(stages))
	for i, s := range stages {
		x, ctxs[i] = s.Forward(tokens, x)
	}
	loss, dy := CrossEntropy(&stages[len(stages)-1].arena, x, targets)
	for i := len(stages) - 1; i >= 0; i-- {
		dy = stages[i].Backward(ctxs[i], dy)
	}
	return loss
}

func TestPipelineMatchesSingleStage(t *testing.T) {
	// The multi-goroutine 1F1B executor must produce exactly the losses of
	// a sequential single-stage run on the same seeds.
	cfg := Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 3}
	single, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 6}, Steps: 10, MicroBatches: 4, LR: 2e-3, DataSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Steps: 10, MicroBatches: 4, LR: 2e-3, DataSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Losses {
		if single.Losses[i] != multi.Losses[i] {
			t.Fatalf("step %d: single %.17g, pipelined %.17g", i, single.Losses[i], multi.Losses[i])
		}
	}
}

func TestThreeAndFourStagePipelines(t *testing.T) {
	cfg := Config{Layers: 3, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 9}
	// Layer sequence length 8: Embedding + 6 blocks + Head.
	ref, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 8}, Steps: 5, MicroBatches: 4, LR: 1e-3, DataSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][]int{{0, 3, 6, 8}, {0, 2, 4, 6, 8}} {
		got, err := Run(RunConfig{Net: cfg, Bounds: bounds, Steps: 5, MicroBatches: 4, LR: 1e-3, DataSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Losses {
			if ref.Losses[i] != got.Losses[i] {
				t.Fatalf("bounds %v step %d: %.17g vs %.17g", bounds, i, got.Losses[i], ref.Losses[i])
			}
		}
	}
}

func TestLossDescends(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 32, Heads: 4, FFN: 64, Vocab: 32, Seq: 24, Seed: 42}
	res, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Steps: 60, MicroBatches: 4, LR: 3e-3, DataSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	first := avg(res.Losses[:10])
	last := avg(res.Losses[len(res.Losses)-10:])
	if last >= first {
		t.Errorf("loss did not descend: first-10 avg %.4f, last-10 avg %.4f", first, last)
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestRecomputationCutsPeakActivations(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 32, Heads: 4, FFN: 64, Vocab: 32, Seq: 24, Seed: 1}
	saveAll, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Steps: 2, MicroBatches: 4, LR: 1e-3, DataSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	saves := [][]SaveSpec{{SaveNone(), SaveNone()}, {SaveNone(), SaveNone()}}
	recompute, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Saves: saves, Steps: 2, MicroBatches: 4, LR: 1e-3, DataSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := range saveAll.PeakActBytes {
		if recompute.PeakActBytes[s] >= saveAll.PeakActBytes[s] {
			t.Errorf("stage %d: recompute peak %d >= save-all peak %d",
				s, recompute.PeakActBytes[s], saveAll.PeakActBytes[s])
		}
	}
	// 1F1B imbalance: stage 0 holds more in-flight activations.
	if saveAll.PeakActBytes[0] <= saveAll.PeakActBytes[1] {
		t.Errorf("stage 0 peak %d should exceed stage 1 peak %d (in-flight imbalance)",
			saveAll.PeakActBytes[0], saveAll.PeakActBytes[1])
	}
}

// TestSplitValidation: bounds that do not split the 6-layer sequence into
// non-empty stages in order are refused with an error, never a panic, both
// by Split and by a run given them.
func TestSplitValidation(t *testing.T) {
	net := tinyNet(t, 2, 1)
	if _, err := Split(net, []int{0, 6}, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		why    string
		bounds []int
	}{
		{"nil bounds", nil},
		{"empty bounds", []int{}},
		{"a single bound", []int{0}},
		{"bounds not starting at 0", []int{1, 6}},
		{"bounds not covering the sequence", []int{0, 5}},
		{"an empty stage", []int{0, 3, 3, 6}},
		{"bounds out of order", []int{0, 4, 2, 6}},
		{"a negative bound", []int{0, -1, 6}},
		{"an interior bound past the sequence", []int{0, 8, 6}},
	} {
		if _, err := Split(net, c.bounds, nil); err == nil {
			t.Errorf("Split accepted %s: %v", c.why, c.bounds)
		}
		rc := RunConfig{Net: net.Cfg, Bounds: c.bounds, Steps: 1, MicroBatches: 2, LR: 1e-3}
		if _, err := Run(rc); err == nil {
			t.Errorf("Run accepted %s: %v", c.why, c.bounds)
		}
	}
}

// TestStageSavesRejectsBadBounds: StageSaves refuses, with Split's error,
// bounds that do not split the model's sequence, such as a plan's for a
// larger model, rather than slicing past the sequence.
func TestStageSavesRejectsBadBounds(t *testing.T) {
	m := smallCfg.Model()
	none := func(int, model.LayerKind, model.UnitKind) int { return 0 }
	_, err := StageSaves(m, []int{0, 3, 9}, none)
	if want := "train: bounds must span the 6-layer sequence, got [0 3 9]"; err == nil || err.Error() != want {
		t.Errorf("StageSaves(6-layer model, [0 3 9]) = %v, want %q", err, want)
	}
	for _, bounds := range [][]int{nil, {0}, {1, 6}, {0, 5}, {0, 3, 3, 6}, {0, 4, 2, 6}, {0, -1, 6}, {0, 8, 6}} {
		if _, err := StageSaves(m, bounds, none); err == nil {
			t.Errorf("StageSaves accepted bounds %v", bounds)
		}
	}
	saves, err := StageSaves(m, []int{0, 3, 6}, none)
	if err != nil || len(saves) != 2 {
		t.Errorf("StageSaves([0 3 6]) = %v, %v, want two stages", saves, err)
	}
}

func TestSplitAssignsComponents(t *testing.T) {
	net := tinyNet(t, 2, 1)
	stages, err := Split(net, []int{0, 3, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stages[0].Embed == nil || stages[0].HeadProj != nil {
		t.Error("stage 0 should hold the embedding only")
	}
	if stages[1].Embed != nil || stages[1].HeadProj == nil || stages[1].HeadLN == nil {
		t.Error("stage 1 should hold the head only")
	}
	if len(stages[0].Blocks)+len(stages[1].Blocks) != 4 {
		t.Errorf("blocks split %d+%d, want 4 total", len(stages[0].Blocks), len(stages[1].Blocks))
	}
	// Every parameter appears in exactly one stage.
	all := map[*Param]bool{}
	for _, p := range net.Params() {
		all[p] = true
	}
	seen := map[*Param]int{}
	for _, s := range stages {
		for _, p := range s.Params() {
			seen[p]++
		}
	}
	if len(seen) != len(all) {
		t.Errorf("stages carry %d params, net has %d", len(seen), len(all))
	}
	for p, c := range seen {
		if c != 1 {
			t.Errorf("param %s owned by %d stages", p.Name, c)
		}
	}
}

func TestSaveSpecControlsContextSize(t *testing.T) {
	rng := tensor.NewRNG(33)
	b := NewAttnBlock("b", 16, 2, rng)
	x := tensor.RandNorm(rng, 8, 16, 1)
	_, full := b.Forward(nil, x, SaveAll(), nil)
	_, none := b.Forward(nil, x, SaveNone(), nil)
	if none.SavedBytes() >= full.SavedBytes() {
		t.Errorf("SaveNone ctx %d >= SaveAll ctx %d", none.SavedBytes(), full.SavedBytes())
	}
	// The boundary input is always retained.
	if none.SavedBytes() < x.Bytes() {
		t.Errorf("ctx %d smaller than the pinned input %d", none.SavedBytes(), x.Bytes())
	}
	// Core attention dominates: saving it costs at least the per-head
	// probability matrices.
	_, coreOnly := b.Forward(nil, x, SaveNone().With(model.UnitCoreAttention), nil)
	if coreOnly.SavedBytes() <= none.SavedBytes() {
		t.Error("saving core attention did not grow the context")
	}
}

// TestSaveAllSavesEveryListedUnit: on a gated net, SaveAll is exactly the
// set of optional units model.Config.Units lists, and the executor reads
// every one of them. On figure 10's net, plain and gated, dropping each
// listed unit — the head's LayerNorm included — frees exactly the bytes the
// model declares for it, or its deviation row's executor bytes, both in the
// matrices the context holds and in its own SavedBytes accounting.
func TestSaveAllSavesEveryListedUnit(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 32, Heads: 4, FFN: 48, Vocab: 32, Seq: 24, Seed: 4, GatedFFN: true}
	net := mustNet(cfg)
	listed := func(m model.Config, kind model.LayerKind) (spec SaveSpec, units []model.UnitKind) {
		for _, u := range m.Units(kind) {
			if !u.AlwaysSaved {
				spec, units = spec.With(u.Kind), append(units, u.Kind)
			}
		}
		return spec, units
	}
	var all, each []SaveSpec
	for _, b := range net.Blocks {
		spec, _ := listed(cfg.Model(), b.Kind())
		all, each = append(all, SaveAll()), append(each, spec)
	}
	peak := func(saves []SaveSpec) []int64 {
		res, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 6}, Saves: [][]SaveSpec{saves}, Steps: 1, MicroBatches: 2, LR: 1e-3, DataSeed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakActBytes
	}
	if got, want := peak(all), peak(each); got[0] != want[0] {
		t.Errorf("peak with SaveAll %d B, with every listed unit %d B", got[0], want[0])
	}

	matched := map[model.UnitKind]bool{}
	for _, cfg := range []Config{figure10Net, gatedFigure10Net()} {
		m, net := cfg.Model(), mustNet(cfg)
		x := tensor.RandNorm(tensor.NewRNG(5), cfg.Seq, cfg.Dim, 1)
		for i, b := range net.Blocks {
			_, full := b.Forward(nil, x, SaveAll(), nil)
			_, units := listed(m, b.Kind())
			for _, u := range units {
				_, drop := b.Forward(nil, x, SaveAll()&^(SaveSpec(1)<<u), nil)
				want := pinnedFor(t, m, u, matched)
				if got := pinnedBytes(full) - pinnedBytes(drop); got != want {
					t.Errorf("gated=%v block %d: dropping %v frees %d B, want %d B", cfg.GatedFFN, i, u, got, want)
				}
				if got := full.SavedBytes() - drop.SavedBytes(); got != want {
					t.Errorf("gated=%v block %d: dropping %v lowers SavedBytes by %d B, want %d B", cfg.GatedFFN, i, u, got, want)
				}
			}
		}
		head := func(save SaveSpec) *StageCtx {
			st := &Stage{HeadLN: net.HeadLN, HeadProj: net.HeadProj, HeadSave: save}
			_, ctx := st.Forward(nil, x)
			return ctx
		}
		full, drop := head(SaveAll()), head(SaveNone())
		want := pinnedFor(t, m, model.UnitHeadNorm, matched)
		if got := pinnedBytes(full) - pinnedBytes(drop); got != want {
			t.Errorf("gated=%v: dropping the head's LayerNorm frees %d B, want %d B", cfg.GatedFFN, got, want)
		}
		if got := full.SavedBytes() - drop.SavedBytes(); got != want {
			t.Errorf("gated=%v: dropping the head's LayerNorm lowers SavedBytes by %d B, want %d B", cfg.GatedFFN, got, want)
		}
	}
	if len(matched) != len(deviations) {
		t.Errorf("the units matched %d of the %d rows of the deviation table: %v", len(matched), len(deviations), matched)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w||² directly through the optimizer plumbing.
	w := newParam("w", tensor.FromSlice(1, 3, []float64{5, -3, 2}))
	opt := NewAdam([]*Param{w}, 0.05)
	for i := 0; i < 2000; i++ {
		for j := range w.W.Data {
			w.G.Data[j] = 2 * w.W.Data[j]
		}
		opt.Step(1)
	}
	var sq float64
	for _, v := range w.W.Data {
		sq += v * v
	}
	if n := math.Sqrt(sq); n > 1e-3 {
		t.Errorf("Adam failed to minimize a quadratic: |w| = %g", n)
	}
}

func TestAdamGradScale(t *testing.T) {
	mk := func() (*Param, *Adam) {
		w := newParam("w", tensor.FromSlice(1, 1, []float64{1}))
		return w, NewAdam([]*Param{w}, 0.1)
	}
	// Accumulating g over 4 micro-batches then scaling by 4 equals a
	// single micro-batch with gradient g.
	w1, o1 := mk()
	w1.G.Data[0] = 4 * 0.5
	o1.Step(4)
	w2, o2 := mk()
	w2.G.Data[0] = 0.5
	o2.Step(1)
	if w1.W.Data[0] != w2.W.Data[0] {
		t.Errorf("grad scaling mismatch: %g vs %g", w1.W.Data[0], w2.W.Data[0])
	}
	if w1.G.Data[0] != 0 {
		t.Error("gradients not zeroed after step")
	}
}

func TestCorpusProperties(t *testing.T) {
	c := NewCorpus(32, 1<<17, 11)
	if len(c.data) != 1<<17 {
		t.Fatalf("len = %d", len(c.data))
	}
	for i, v := range c.data {
		if v < 0 || v >= 32 {
			t.Fatalf("token %d at %d out of range", v, i)
		}
	}
	// Deterministic.
	c2 := NewCorpus(32, 1<<17, 11)
	for i := range c.data {
		if c.data[i] != c2.data[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	// Markov structure: the conditional next-token distribution must be
	// far from uniform (otherwise there is nothing to learn).
	counts := map[[3]int]int{}
	pair := map[[2]int]int{}
	for i := 2; i < len(c.data); i++ {
		counts[[3]int{c.data[i-2], c.data[i-1], c.data[i]}]++
		pair[[2]int{c.data[i-2], c.data[i-1]}]++
	}
	var peaked int
	var contexts int
	for k, n := range pair {
		if n < 20 {
			continue
		}
		contexts++
		best := 0
		for next := 0; next < 32; next++ {
			if c := counts[[3]int{k[0], k[1], next}]; c > best {
				best = c
			}
		}
		if float64(best)/float64(n) > 0.25 { // uniform would be ~1/32
			peaked++
		}
	}
	if contexts == 0 || peaked*2 < contexts {
		t.Errorf("corpus lacks learnable structure: %d/%d peaked contexts", peaked, contexts)
	}
	// Sampling: targets shifted by one.
	rng := tensor.NewRNG(1)
	tok, tgt := c.Sample(16, rng)
	for i := 0; i < 15; i++ {
		if tok[i+1] != tgt[i] {
			t.Fatal("targets are not the shifted input")
		}
	}
	batches := c.Batches(3, 8, rng)
	if len(batches) != 3 || len(batches[0].Tokens) != 8 {
		t.Fatal("bad batch shape")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := Config{Layers: 1, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 1}
	if _, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 2, 4}, Steps: 1, MicroBatches: 1, LR: 1e-3}); err == nil {
		t.Error("n < stages accepted")
	}
	bad := cfg
	bad.Dim = 15
	if _, err := Run(RunConfig{Net: bad, Bounds: []int{0, 4}, Steps: 1, MicroBatches: 1, LR: 1e-3}); err == nil {
		t.Error("invalid net config accepted")
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
}

func TestInitializationIndependentOfPartitioning(t *testing.T) {
	// The same seed yields identical parameters regardless of how the net
	// is later split, which is what makes cross-partitioning loss curves
	// comparable bit-for-bit.
	a := mustNet(Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 7})
	b := mustNet(Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 7})
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param count mismatch")
	}
	for i := range pa {
		if tensor.MaxAbsDiff(pa[i].W, pb[i].W) != 0 {
			t.Fatalf("param %s differs across constructions", pa[i].Name)
		}
	}
	c := mustNet(Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 8})
	if tensor.MaxAbsDiff(a.Params()[0].W, c.Params()[0].W) == 0 {
		t.Error("different seeds produced identical embeddings")
	}
}

func TestHeadLNRecompute(t *testing.T) {
	// The head LayerNorm can also be recomputed; the logits must match.
	// Split gives the head the entry after the stage's blocks.
	net := tinyNet(t, 1, 5)
	split := func(head SaveSpec) []*Stage {
		stages, err := Split(net, []int{0, 4}, [][]SaveSpec{{SaveAll(), SaveAll(), head}})
		if err != nil {
			t.Fatal(err)
		}
		if stages[0].HeadSave != head {
			t.Fatalf("head spec %b, want %b", stages[0].HeadSave, head)
		}
		return stages
	}
	corpus := NewCorpus(20, 1024, 3)
	rng := tensor.NewRNG(4)
	tokens, targets := corpus.Sample(12, rng)

	stages := split(SaveNone().With(model.UnitHeadNorm))
	l1 := runOnce(t, stages, tokens, targets)
	g1 := cloneGrads(stages)
	zeroGrads(stages)
	stages = split(SaveNone())
	l2 := runOnce(t, stages, tokens, targets)
	g2 := cloneGrads(stages)
	if l1 != l2 {
		t.Fatalf("head LN recompute changed the loss: %.17g vs %.17g", l1, l2)
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatal("head LN recompute changed a gradient")
			}
		}
	}
}

func TestPeakActivationAccounting(t *testing.T) {
	// With n micro-batches and 2 stages, stage 0 holds at most 2 contexts
	// live under 1F1B, so its peak is below 2x a single context plus
	// rounding; verify it is strictly below n contexts (the GPipe bound).
	cfg := Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 1}
	res, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Steps: 1, MicroBatches: 8, LR: 1e-3, DataSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := mustNet(cfg)
	stages, _ := Split(net, []int{0, 3, 6}, nil)
	corpus := NewCorpus(20, 4096, 8)
	rng := tensor.NewRNG(1)
	tokens, _ := corpus.Sample(12, rng)
	_, ctx := stages[0].Forward(tokens, nil)
	oneCtx := ctx.SavedBytes()
	if res.PeakActBytes[0] > 3*oneCtx {
		t.Errorf("stage 0 peak %d exceeds the 1F1B in-flight bound (~2 contexts of %d)", res.PeakActBytes[0], oneCtx)
	}
	if math.MaxInt64 == res.PeakActBytes[0] {
		t.Fatal("unreachable")
	}
}

// TestPipelinePartitionInvariance is the engine-level counterpart of the
// §7.5 validation as a property test: for random stage counts and split
// points, pipelined training produces bit-identical losses to the
// single-stage run.
func TestPipelinePartitionInvariance(t *testing.T) {
	cfg := Config{Layers: 3, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 11}
	ref, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 8}, Steps: 3, MicroBatches: 4, LR: 1e-3, DataSeed: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut1, cut2 uint8) bool {
		// Layer sequence has 8 entries; random 2- or 3-stage splits.
		a := 1 + int(cut1%7) // 1..7
		bounds := []int{0, a, 8}
		if b := 1 + int(cut2%7); b != a {
			if b < a {
				a, b = b, a
			}
			bounds = []int{0, a, b, 8}
		}
		n := 4
		if n < len(bounds)-1 {
			return true // cannot fill the pipeline; skip
		}
		got, err := Run(RunConfig{Net: cfg, Bounds: bounds, Steps: 3, MicroBatches: n, LR: 1e-3, DataSeed: 6})
		if err != nil {
			return false
		}
		for i := range ref.Losses {
			if got.Losses[i] != ref.Losses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
