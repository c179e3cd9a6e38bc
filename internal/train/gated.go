package train

import (
	"math"

	"adapipe/internal/model"
	"adapipe/internal/tensor"
)

// GatedFFNBlock is a SwiGLU feed-forward sub-layer (Llama-2 style):
// y = x + Down(SiLU(Gate(ln)) ⊙ Up(ln)).
type GatedFFNBlock struct {
	LN   *LayerNorm
	Up   *Linear
	Gate *Linear
	Down *Linear
}

// NewGatedFFNBlock builds a gated feed-forward sub-layer.
func NewGatedFFNBlock(name string, dim, ffn int, rng *tensor.RNG) *GatedFFNBlock {
	std := 0.02
	return &GatedFFNBlock{
		LN:   NewLayerNorm(name+".ln", dim),
		Up:   NewLinear(name+".up", dim, ffn, std, rng),
		Gate: NewLinear(name+".gate", dim, ffn, std, rng),
		Down: NewLinear(name+".down", ffn, dim, std, rng),
	}
}

// Kind returns model.FFN (gated and plain FFN layers partition identically).
func (b *GatedFFNBlock) Kind() model.LayerKind { return model.FFN }

// Params returns all trainable parameters of the block.
func (b *GatedFFNBlock) Params() []*Param {
	var ps []*Param
	for _, u := range []interface{ Params() []*Param }{b.LN, b.Up, b.Gate, b.Down} {
		ps = append(ps, u.Params()...)
	}
	return ps
}

type gatedCtx struct {
	x    *tensor.Mat
	ln   *tensor.Mat
	lnSt lnCtx
	up   *tensor.Mat
	gate *tensor.Mat
	act  *tensor.Mat // SiLU(gate) ⊙ up
}

// SavedBytes sums the pinned activation payloads.
func (c *gatedCtx) SavedBytes() int64 {
	var n int64
	for _, m := range [...]*tensor.Mat{c.x, c.ln, c.up, c.gate, c.act} {
		if m != nil {
			n += m.Bytes()
		}
	}
	return n + c.lnSt.bytes()
}

// gatedAct computes SiLU(gate) ⊙ up, with SiLU(g) = g·σ(g), element-wise.
func gatedAct(a *arena, up, gate *tensor.Mat) *tensor.Mat {
	y := a.get(up.Rows, up.Cols)
	for i, g := range gate.Data {
		silu := g / (1 + math.Exp(-g))
		y.Data[i] = silu * up.Data[i]
	}
	return y
}

// gatedActBackward returns (dup, dgate) given the forward inputs.
func gatedActBackward(a *arena, up, gate, dy *tensor.Mat) (*tensor.Mat, *tensor.Mat) {
	dup := a.get(up.Rows, up.Cols)
	dgate := a.get(up.Rows, up.Cols)
	for i := range up.Data {
		g := gate.Data[i]
		sig := 1 / (1 + math.Exp(-g))
		silu := g * sig
		dup.Data[i] = dy.Data[i] * silu
		// d(silu)/dg = σ(g)·(1 + g·(1−σ(g)))
		dgate.Data[i] = dy.Data[i] * up.Data[i] * sig * (1 + g*(1-sig))
	}
	return dup, dgate
}

func (c *gatedCtx) poison() {
	p := poisonMat
	*c = gatedCtx{x: p, ln: p, lnSt: lnCtx{p, p}, up: p, gate: p, act: p}
}

// Forward runs the sub-layer keeping only the units selected by save.
func (b *GatedFFNBlock) Forward(a *arena, x *tensor.Mat, save SaveSpec, reuse BlockCtx) (*tensor.Mat, BlockCtx) {
	ctx, _ := reuse.(*gatedCtx)
	if ctx == nil {
		ctx = new(gatedCtx)
	}
	*ctx = gatedCtx{x: x}
	ln, lnSt := b.LN.Forward(a, x)
	up := b.Up.Forward(a, ln)
	gate := b.Gate.Forward(a, ln)
	act := gatedAct(a, up, gate)
	down := b.Down.Forward(a, act)
	y := tensor.AddInto(down, x, down)
	ctx.ln, ctx.lnSt = lnSt.keep(a, save.Has(model.UnitLayerNorm), ln)
	ctx.up = a.keep(save.Has(model.UnitFFNUp), up)
	ctx.gate = a.keep(save.Has(model.UnitFFNGate), gate)
	ctx.act = a.keep(save.Has(model.UnitFFNAct), act)
	return y, ctx
}

// Backward replays dropped units and computes gradients.
func (b *GatedFFNBlock) Backward(a *arena, bc BlockCtx, dy *tensor.Mat) *tensor.Mat {
	ctx := bc.(*gatedCtx)
	ln, lnSt := ctx.ln, ctx.lnSt
	if ln == nil {
		ln, lnSt = b.LN.Forward(a, ctx.x)
	}
	up := ctx.up
	if up == nil {
		up = b.Up.Forward(a, ln)
	}
	gate := ctx.gate
	if gate == nil {
		gate = b.Gate.Forward(a, ln)
	}
	act := ctx.act
	if act == nil {
		act = gatedAct(a, up, gate)
	}

	dact := b.Down.Backward(a, act, dy)
	dup, dgate := gatedActBackward(a, up, gate, dact)
	dln := b.Up.Backward(a, ln, dup)
	dlnGate := b.Gate.Backward(a, ln, dgate)
	tensor.AddInPlace(dln, dlnGate)
	dx := b.LN.Backward(a, lnSt, dln)
	tensor.AddInPlace(dx, dy)
	a.put(ctx.x, ln, up, gate, act, dact, dup, dgate, dln, dlnGate, dy)
	lnSt.release(a)
	return dx
}
