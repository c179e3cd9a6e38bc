package train

import (
	"fmt"
	"slices"

	"adapipe/internal/model"
	"adapipe/internal/tensor"
)

// Config sizes the trainable micro-transformer.
type Config struct {
	// Layers is the decoder-block count (each block = Attention + FFN).
	Layers int
	// Dim is the model width.
	Dim int
	// Heads is the attention head count.
	Heads int
	// FFN is the feed-forward inner width.
	FFN int
	// Vocab is the vocabulary size.
	Vocab int
	// Seq is the training sequence length.
	Seq int
	// GatedFFN selects SwiGLU feed-forward blocks (Llama-2 style).
	GatedFFN bool
	// Seed seeds parameter initialization; identical seeds give identical
	// parameters regardless of how the network is later partitioned.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Dim <= 0 || c.Heads <= 0 || c.FFN <= 0 || c.Vocab <= 0 || c.Seq <= 0:
		return fmt.Errorf("train: all dimensions must be positive: %+v", c)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("train: Dim %d must be divisible by Heads %d", c.Dim, c.Heads)
	}
	return nil
}

// Model returns the planner's description of the same net: every head is
// its own key/value head, and a value is 8 bytes, the executor's float64.
func (c Config) Model() model.Config {
	return model.Config{
		Name: fmt.Sprintf("train-%dL", c.Layers), DecoderLayers: c.Layers, Hidden: c.Dim,
		Heads: c.Heads, KVHeads: c.Heads, FFNHidden: c.FFN, Vocab: c.Vocab,
		GatedFFN: c.GatedFFN, BytesPerValue: 8,
	}
}

// Net is the complete micro-transformer.
type Net struct {
	// Cfg echoes the construction config.
	Cfg Config
	// Embed is the token+position embedding.
	Embed *Embedding
	// Blocks alternates Attention and FFN sub-layers (2×Layers entries).
	Blocks []Block
	// HeadLN is the final LayerNorm.
	HeadLN *LayerNorm
	// HeadProj is the vocabulary projection.
	HeadProj *Linear
}

// NewNet builds and initializes the network. Each component draws from its
// own deterministic RNG stream derived from (seed, component index), so
// parameters do not depend on construction order or partitioning.
func NewNet(cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stream := func(i int) *tensor.RNG { return tensor.NewRNG(cfg.Seed*1000003 + uint64(i)*97 + 1) }
	n := &Net{Cfg: cfg}
	n.Embed = NewEmbedding("embed", cfg.Vocab, cfg.Seq, cfg.Dim, 0.02, stream(0))
	for i := 0; i < cfg.Layers; i++ {
		n.Blocks = append(n.Blocks,
			NewAttnBlock(fmt.Sprintf("b%d.attn", i), cfg.Dim, cfg.Heads, stream(1+2*i)),
			NewFFNBlock(fmt.Sprintf("b%d.ffn", i), cfg.Dim, cfg.FFN, cfg.GatedFFN, stream(2+2*i)))
	}
	n.HeadLN = NewLayerNorm("head.ln", cfg.Dim)
	n.HeadProj = NewLinear("head.proj", cfg.Dim, cfg.Vocab, 0.02, stream(1+2*cfg.Layers))
	return n, nil
}

// Params returns every trainable parameter.
func (n *Net) Params() []*Param {
	ps := n.Embed.Params()
	for _, b := range n.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, n.HeadLN.Params()...)
	ps = append(ps, n.HeadProj.Params()...)
	return ps
}

// Stage owns a contiguous slice of the network: optionally the embedding,
// a run of blocks, and optionally the head.
type Stage struct {
	// Index is the pipeline stage id.
	Index int
	// Embed is non-nil on the first stage.
	Embed *Embedding
	// Blocks are the decoder sub-layers of the stage.
	Blocks []Block
	// Saves holds one SaveSpec per block (the stage's recomputation
	// strategy from the planner).
	Saves []SaveSpec
	// HeadLN and HeadProj are non-nil on the last stage.
	HeadLN   *LayerNorm
	HeadProj *Linear
	// HeadSave is the head's SaveSpec: its model.UnitHeadNorm bit keeps the
	// head LayerNorm's output and statistics instead of recomputing them.
	HeadSave SaveSpec
	// arena recycles the stage's activation, gradient and scratch buffers
	// across micro-batches and steps.
	arena arena
}

// Params returns the stage's trainable parameters.
func (s *Stage) Params() []*Param {
	var ps []*Param
	if s.Embed != nil {
		ps = append(ps, s.Embed.Params()...)
	}
	for _, b := range s.Blocks {
		ps = append(ps, b.Params()...)
	}
	if s.HeadLN != nil {
		ps = append(ps, s.HeadLN.Params()...)
	}
	if s.HeadProj != nil {
		ps = append(ps, s.HeadProj.Params()...)
	}
	return ps
}

// StageCtx is the saved state of one micro-batch's forward pass through a
// stage.
type StageCtx struct {
	tokens []int
	input  *tensor.Mat // boundary input for non-first stages
	blocks []BlockCtx
	// head state (last stage only)
	headIn   *tensor.Mat
	headLn   *tensor.Mat
	headLnSt lnCtx
	logits   *tensor.Mat
}

func (c *StageCtx) poison() {
	p := poisonMat
	*c = StageCtx{tokens: []int{-1}, input: p, blocks: c.blocks, headIn: p, headLn: p, headLnSt: lnCtx{p, p}, logits: p}
	for _, b := range c.blocks {
		b.poison()
	}
}

// SavedBytes reports the activation memory the context pins, each matrix
// once. A later stage's input is its first block's x, or the head's input on
// a stage without blocks, and is counted there.
func (c *StageCtx) SavedBytes() int64 {
	var n int64
	for _, b := range c.blocks {
		n += b.SavedBytes()
	}
	for _, m := range [...]*tensor.Mat{c.headIn, c.headLn, c.logits} {
		if m != nil {
			n += m.Bytes()
		}
	}
	return n + c.headLnSt.bytes()
}

// Forward runs one micro-batch through the stage. The first stage consumes
// tokens; later stages consume the boundary activation x, which the stage
// takes over. The last stage returns logits, which its context pins; any
// other stage's output belongs to the caller (the next stage, once sent).
func (s *Stage) Forward(tokens []int, x *tensor.Mat) (*tensor.Mat, *StageCtx) {
	a := &s.arena
	ctx := a.takeCtx(len(s.Blocks))
	ctx.tokens = tokens
	if s.Embed != nil {
		x = s.Embed.Forward(a, tokens)
	} else {
		ctx.input = x
	}
	for i, b := range s.Blocks {
		x, ctx.blocks[i] = b.Forward(a, x, s.Saves[i], ctx.blocks[i])
	}
	if s.HeadProj != nil {
		ctx.headIn = x
		ln, st := s.HeadLN.Forward(a, x)
		logits := s.HeadProj.Forward(a, ln)
		ctx.headLn, ctx.headLnSt = st.keep(a, s.HeadSave.Has(model.UnitHeadNorm), ln)
		ctx.logits = logits
		return logits, ctx
	}
	return x, ctx
}

// Backward propagates dy through the stage, accumulating parameter gradients
// and returning the gradient of the stage input (nil on the first stage). It
// consumes ctx and dy: everything the micro-batch pinned goes back to the
// stage's arena the moment its gradients are out, and ctx itself after it.
func (s *Stage) Backward(ctx *StageCtx, dy *tensor.Mat) *tensor.Mat {
	a := &s.arena
	if s.HeadProj != nil {
		ln, lnSt := ctx.headLn, ctx.headLnSt
		if ln == nil {
			ln, lnSt = s.HeadLN.Forward(a, ctx.headIn)
		}
		dln := s.HeadProj.Backward(a, ln, dy)
		dx := s.HeadLN.Backward(a, lnSt, dln)
		// headIn is the last block's output — or, on a head-only stage, the
		// stage input itself, which no block will release.
		a.put(ctx.headIn, ln, ctx.logits, dln, dy)
		lnSt.release(a)
		dy = dx
	}
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		dy = s.Blocks[i].Backward(a, ctx.blocks[i], dy)
	}
	if s.Embed != nil {
		s.Embed.Backward(ctx.tokens, dy)
		a.put(dy)
		dy = nil
	}
	a.releaseCtx(ctx)
	return dy
}

// Split partitions the network into p stages at the given layer bounds
// (p+1 entries over the model's LayerSequence indices, as produced by the
// planner or partition.Even). saves[s] supplies one SaveSpec per layer of
// stage s that has an optional unit, in sequence order: its blocks, then its
// head. A layer without an entry saves everything.
func Split(n *Net, bounds []int, saves [][]SaveSpec) ([]*Stage, error) {
	m := n.Cfg.Model()
	seq := m.LayerSequence()
	if err := checkBounds(len(seq), bounds); err != nil {
		return nil, err
	}
	p := len(bounds) - 1
	stages := make([]*Stage, p)
	for s := 0; s < p; s++ {
		st := &Stage{Index: s}
		var specs []SaveSpec
		if s < len(saves) {
			specs = saves[s]
		}
		for _, l := range seq[bounds[s]:bounds[s+1]] {
			spec := SaveAll()
			if hasOptional(m, l.Kind) && len(specs) > 0 {
				spec, specs = specs[0], specs[1:]
			}
			switch l.Kind {
			case model.Embedding:
				st.Embed = n.Embed
			case model.Head:
				st.HeadLN, st.HeadProj, st.HeadSave = n.HeadLN, n.HeadProj, spec
			default:
				// Block index in n.Blocks is l.Index-1 (embedding first).
				st.Blocks = append(st.Blocks, n.Blocks[l.Index-1])
				st.Saves = append(st.Saves, spec)
			}
		}
		stages[s] = st
	}
	return stages, nil
}

// checkBounds returns an error unless bounds split a sequence of n layers
// into non-empty stages, in order; it names the first stage that does not.
func checkBounds(n int, bounds []int) error {
	p := len(bounds) - 1
	if p < 1 || bounds[0] != 0 || bounds[p] != n {
		return fmt.Errorf("train: bounds must span the %d-layer sequence, got %v", n, bounds)
	}
	for s := 0; s < p; s++ {
		if bounds[s+1] <= bounds[s] {
			return fmt.Errorf("train: stage %d is empty (bounds %v)", s, bounds)
		}
		if bounds[s+1] > n {
			return fmt.Errorf("train: stage %d ends past the %d-layer sequence (bounds %v)", s, n, bounds)
		}
	}
	return nil
}

// hasOptional reports whether layers of the given kind have a unit that is
// not always saved, i.e. take an entry in Split's saves.
func hasOptional(m model.Config, kind model.LayerKind) bool {
	return slices.ContainsFunc(m.Units(kind), func(u model.Unit) bool { return !u.AlwaysSaved })
}

// StageSaves maps a plan's per-stage saved counts onto Split's saves. bounds
// are the stage bounds over m.LayerSequence(), and saved(s, layer, unit) is
// how many of stage s's layers of that kind keep the unit. Each optional
// unit of every layer kind goes to the stage's trailing layers of its kind
// (which copies are saved is immaterial to both time and memory — all copies
// are isomorphic). Bounds that do not split m's sequence into non-empty
// stages, in order, are an error, as in Split.
func StageSaves(m model.Config, bounds []int, saved func(stage int, layer model.LayerKind, unit model.UnitKind) int) ([][]SaveSpec, error) {
	seq := m.LayerSequence()
	if err := checkBounds(len(seq), bounds); err != nil {
		return nil, err
	}
	saves := make([][]SaveSpec, len(bounds)-1)
	for s := range saves {
		var kinds []model.LayerKind // the stage's layers with an optional unit, in order
		for _, l := range seq[bounds[s]:bounds[s+1]] {
			if hasOptional(m, l.Kind) {
				kinds = append(kinds, l.Kind)
			}
		}
		saves[s] = make([]SaveSpec, len(kinds))
		for kind := model.Embedding; kind <= model.Head; kind++ {
			for _, u := range m.Units(kind) {
				if u.AlwaysSaved {
					continue
				}
				c := saved(s, kind, u.Kind)
				for b := len(kinds) - 1; b >= 0 && c > 0; b-- {
					if kinds[b] == kind {
						saves[s][b] = saves[s][b].With(u.Kind)
						c--
					}
				}
			}
		}
	}
	return saves, nil
}
