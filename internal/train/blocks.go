package train

import (
	"adapipe/internal/model"
	"adapipe/internal/tensor"
)

// SaveSpec is the set of computation units of a sub-layer that keep their
// activations after the forward pass, one bit per model.UnitKind. Units not
// in the set are recomputed from the layer's input boundary right before the
// backward pass — the exact mechanism of §4.1. The final GEMM output of each
// sub-layer (the boundary tensor) is always saved, mirroring the planner's
// AlwaysSaved restriction. The zero value saves nothing.
type SaveSpec uint32

// SaveAll returns a spec saving every unit of any block (no recomputation):
// every bit is set.
func SaveAll() SaveSpec { return ^SaveSpec(0) }

// SaveNone returns a spec recomputing every optional unit (the full-
// recomputation baseline at unit granularity): the zero value.
func SaveNone() SaveSpec { return 0 }

// Has reports whether the spec saves units of kind k.
func (s SaveSpec) Has(k model.UnitKind) bool { return s&(1<<k) != 0 }

// With returns the spec that also saves units of kind k.
func (s SaveSpec) With(k model.UnitKind) SaveSpec { return s | 1<<k }

// Block is a pipeline-partitionable sub-layer: an Attention or FFN block with
// pre-LayerNorm and a residual connection.
type Block interface {
	// Kind reports the block's layer kind.
	Kind() model.LayerKind
	// Forward runs the block, saving activations per spec. The returned
	// context is passed to Backward. The block takes over x: the context
	// pins it until Backward (see arena for the ownership rule). reuse, when
	// non-nil, is a context of this block that Backward has consumed; Forward
	// resets and returns it instead of allocating one.
	Forward(a *arena, x *tensor.Mat, save SaveSpec, reuse BlockCtx) (*tensor.Mat, BlockCtx)
	// Backward recomputes dropped activations, accumulates parameter
	// gradients and returns dx. It consumes ctx and dy: every buffer either
	// holds is released to a, and neither may be used again.
	Backward(a *arena, ctx BlockCtx, dy *tensor.Mat) *tensor.Mat
	// Params returns the trainable parameters.
	Params() []*Param
}

// BlockCtx is the saved state of one forward pass of one micro-batch.
type BlockCtx interface {
	// SavedBytes reports the activation memory the context pins, used by
	// the engine's live-memory accounting tests.
	SavedBytes() int64
	// poison overwrites a consumed context with values no forward pass
	// writes (see arena.poison).
	poison()
}

// AttnBlock is a causal self-attention sub-layer:
// y = x + Out(core(Q(ln), K(ln), V(ln))).
type AttnBlock struct {
	LN    *LayerNorm
	Q     *Linear
	K     *Linear
	V     *Linear
	Out   *Linear
	Heads int
}

// NewAttnBlock builds an attention sub-layer with the given width.
func NewAttnBlock(name string, dim, heads int, rng *tensor.RNG) *AttnBlock {
	std := 0.02
	return &AttnBlock{
		LN:    NewLayerNorm(name+".ln", dim),
		Q:     NewLinear(name+".q", dim, dim, std, rng),
		K:     NewLinear(name+".k", dim, dim, std, rng),
		V:     NewLinear(name+".v", dim, dim, std, rng),
		Out:   NewLinear(name+".out", dim, dim, std, rng),
		Heads: heads,
	}
}

// Kind returns model.Attention.
func (b *AttnBlock) Kind() model.LayerKind { return model.Attention }

// Params returns all trainable parameters of the block.
func (b *AttnBlock) Params() []*Param {
	var ps []*Param
	for _, u := range []interface{ Params() []*Param }{b.LN, b.Q, b.K, b.V, b.Out} {
		ps = append(ps, u.Params()...)
	}
	return ps
}

type attnCtx struct {
	x    *tensor.Mat // input boundary, always kept
	ln   *tensor.Mat
	lnSt lnCtx
	q    *tensor.Mat
	k    *tensor.Mat
	v    *tensor.Mat
	att  *tensor.Mat
	core coreCtx
}

// SavedBytes sums the pinned activation payloads.
func (c *attnCtx) SavedBytes() int64 {
	var n int64
	for _, m := range [...]*tensor.Mat{c.x, c.ln, c.q, c.k, c.v, c.att} {
		if m != nil {
			n += m.Bytes()
		}
	}
	n += c.lnSt.bytes()
	for _, p := range c.core.probs {
		n += p.Bytes()
	}
	return n
}

func (c *attnCtx) poison() {
	p := poisonMat
	*c = attnCtx{x: p, ln: p, lnSt: lnCtx{p, p}, q: p, k: p, v: p, att: p, core: coreCtx{append(c.core.probs[:0], p)}}
}

// Forward runs the sub-layer keeping only the units selected by save; what
// is not kept goes back to the arena before it returns. The context keeps
// its per-head slice from one use to the next.
func (b *AttnBlock) Forward(a *arena, x *tensor.Mat, save SaveSpec, reuse BlockCtx) (*tensor.Mat, BlockCtx) {
	ctx, _ := reuse.(*attnCtx)
	if ctx == nil {
		ctx = new(attnCtx)
	}
	*ctx = attnCtx{x: x, core: coreCtx{ctx.core.probs[:0]}}
	ln, lnSt := b.LN.Forward(a, x)
	q := b.Q.Forward(a, ln)
	k := b.K.Forward(a, ln)
	v := b.V.Forward(a, ln)
	att, core := attentionCore(a, q, k, v, b.Heads, ctx.core.probs)
	out := b.Out.Forward(a, att)
	y := tensor.AddInto(out, x, out)
	ctx.ln, ctx.lnSt = lnSt.keep(a, save.Has(model.UnitLayerNorm), ln)
	ctx.q = a.keep(save.Has(model.UnitQProj), q)
	ctx.k = a.keep(save.Has(model.UnitKProj), k)
	ctx.v = a.keep(save.Has(model.UnitVProj), v)
	if save.Has(model.UnitCoreAttention) {
		ctx.att = att
	} else {
		a.put(att)
		core.release(a)
	}
	ctx.core = core
	return y, ctx
}

// Backward replays any dropped unit from the saved boundary, then runs the
// gradient computation. The replay executes the identical float operations
// as the original forward, so gradients are bit-identical to the no-
// recomputation path.
func (b *AttnBlock) Backward(a *arena, bc BlockCtx, dy *tensor.Mat) *tensor.Mat {
	ctx := bc.(*attnCtx)
	ln, lnSt := ctx.ln, ctx.lnSt
	if ln == nil {
		ln, lnSt = b.LN.Forward(a, ctx.x)
	}
	q := ctx.q
	if q == nil {
		q = b.Q.Forward(a, ln)
	}
	k := ctx.k
	if k == nil {
		k = b.K.Forward(a, ln)
	}
	v := ctx.v
	if v == nil {
		v = b.V.Forward(a, ln)
	}
	att, core := ctx.att, ctx.core
	if att == nil {
		att, core = attentionCore(a, q, k, v, b.Heads, ctx.core.probs)
	}

	// y = x + Out(att): residual passes dy through.
	datt := b.Out.Backward(a, att, dy)
	dq, dk, dv := attentionCoreBackward(a, core, q, k, v, datt, b.Heads)
	dln := b.Q.Backward(a, ln, dq)
	dlnK := b.K.Backward(a, ln, dk)
	tensor.AddInPlace(dln, dlnK)
	dlnV := b.V.Backward(a, ln, dv)
	tensor.AddInPlace(dln, dlnV)
	dx := b.LN.Backward(a, lnSt, dln)
	tensor.AddInPlace(dx, dy)
	a.put(ctx.x, ln, q, k, v, att, datt, dq, dk, dv, dln, dlnK, dlnV, dy)
	lnSt.release(a)
	core.release(a)
	ctx.core = core
	return dx
}

// FFNBlock is a feed-forward sub-layer: y = x + Down(gelu(Up(ln))), or, with
// a Gate, the SwiGLU form (Llama-2 style) y = x + Down(SiLU(Gate(ln)) ⊙ Up(ln)).
type FFNBlock struct {
	LN *LayerNorm
	Up *Linear
	// Gate is the gate projection of a SwiGLU block; nil for GELU.
	Gate *Linear
	Down *Linear
}

// NewFFNBlock builds a feed-forward sub-layer, gated (SwiGLU) if asked.
func NewFFNBlock(name string, dim, ffn int, gated bool, rng *tensor.RNG) *FFNBlock {
	std := 0.02
	b := &FFNBlock{LN: NewLayerNorm(name+".ln", dim), Up: NewLinear(name+".up", dim, ffn, std, rng)}
	if gated {
		b.Gate = NewLinear(name+".gate", dim, ffn, std, rng)
	}
	b.Down = NewLinear(name+".down", ffn, dim, std, rng)
	return b
}

// Kind returns model.FFN (gated and plain FFN layers partition identically).
func (b *FFNBlock) Kind() model.LayerKind { return model.FFN }

// Params returns all trainable parameters of the block.
func (b *FFNBlock) Params() []*Param {
	ps := append(b.LN.Params(), b.Up.Params()...)
	if b.Gate != nil {
		ps = append(ps, b.Gate.Params()...)
	}
	return append(ps, b.Down.Params()...)
}

type ffnCtx struct {
	x    *tensor.Mat
	ln   *tensor.Mat
	lnSt lnCtx
	up   *tensor.Mat
	gate *tensor.Mat
	act  *tensor.Mat
}

// SavedBytes sums the pinned activation payloads.
func (c *ffnCtx) SavedBytes() int64 {
	var n int64
	for _, m := range [...]*tensor.Mat{c.x, c.ln, c.up, c.gate, c.act} {
		if m != nil {
			n += m.Bytes()
		}
	}
	return n + c.lnSt.bytes()
}

func (c *ffnCtx) poison() {
	p := poisonMat
	*c = ffnCtx{x: p, ln: p, lnSt: lnCtx{p, p}, up: p, gate: p, act: p}
}

// act runs the activation unit: gelu(up), or SiLU(gate) ⊙ up.
func (b *FFNBlock) act(a *arena, up, gate *tensor.Mat) *tensor.Mat {
	if b.Gate == nil {
		return geluForward(a, up)
	}
	return gatedAct(a, up, gate)
}

// Forward runs the sub-layer keeping only the units selected by save.
func (b *FFNBlock) Forward(a *arena, x *tensor.Mat, save SaveSpec, reuse BlockCtx) (*tensor.Mat, BlockCtx) {
	ctx, _ := reuse.(*ffnCtx)
	if ctx == nil {
		ctx = new(ffnCtx)
	}
	*ctx = ffnCtx{x: x}
	ln, lnSt := b.LN.Forward(a, x)
	up := b.Up.Forward(a, ln)
	var gate *tensor.Mat
	if b.Gate != nil {
		gate = b.Gate.Forward(a, ln)
	}
	act := b.act(a, up, gate)
	down := b.Down.Forward(a, act)
	y := tensor.AddInto(down, x, down)
	ctx.ln, ctx.lnSt = lnSt.keep(a, save.Has(model.UnitLayerNorm), ln)
	ctx.up = a.keep(save.Has(model.UnitFFNUp), up)
	ctx.gate = a.keep(save.Has(model.UnitFFNGate), gate)
	ctx.act = a.keep(save.Has(model.UnitFFNAct), act)
	return y, ctx
}

// Backward replays dropped units and computes gradients.
func (b *FFNBlock) Backward(a *arena, bc BlockCtx, dy *tensor.Mat) *tensor.Mat {
	ctx := bc.(*ffnCtx)
	ln, lnSt := ctx.ln, ctx.lnSt
	if ln == nil {
		ln, lnSt = b.LN.Forward(a, ctx.x)
	}
	up := ctx.up
	if up == nil {
		up = b.Up.Forward(a, ln)
	}
	gate := ctx.gate
	if gate == nil && b.Gate != nil {
		gate = b.Gate.Forward(a, ln)
	}
	act := ctx.act
	if act == nil {
		act = b.act(a, up, gate)
	}

	dact := b.Down.Backward(a, act, dy)
	var dup, dgate, dlnGate *tensor.Mat
	if b.Gate == nil {
		dup = geluBackward(a, up, dact)
	} else {
		dup, dgate = gatedActBackward(a, up, gate, dact)
	}
	dln := b.Up.Backward(a, ln, dup)
	if b.Gate != nil {
		dlnGate = b.Gate.Backward(a, ln, dgate)
		tensor.AddInPlace(dln, dlnGate)
	}
	dx := b.LN.Backward(a, lnSt, dln)
	tensor.AddInPlace(dx, dy)
	a.put(ctx.x, ln, up, gate, act, dact, dup, dgate, dln, dlnGate, dy)
	lnSt.release(a)
	return dx
}
