// Package train is the execution-engine substrate of the reproduction: a
// pure-Go transformer trainer with genuine unit-level recomputation and a
// multi-goroutine 1F1B pipeline executor. It stands in for the paper's
// Megatron-LM/MindSpore engines (§6) and backs the convergence validation of
// Figure 10: recomputation drops intermediates in the forward pass and
// replays the exact same floating-point operations before backward, so
// gradients — and therefore loss curves — are bit-identical to training
// without recomputation.
package train

import (
	"fmt"
	"math"

	"adapipe/internal/tensor"
)

// Param is one trainable matrix with its gradient accumulator.
type Param struct {
	// Name identifies the parameter in error messages and when debugging.
	Name string
	// W is the weight matrix.
	W *tensor.Mat
	// G is the gradient accumulator, zeroed by the optimizer step.
	G *tensor.Mat
}

func newParam(name string, w *tensor.Mat) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Rows, w.Cols)}
}

// Linear is a dense layer y = x·W + b.
type Linear struct {
	// W is the [in, out] weight parameter.
	W *Param
	// B is the [1, out] bias parameter.
	B *Param
}

// NewLinear initializes a Linear with N(0, std²) weights and zero bias.
func NewLinear(name string, in, out int, std float64, rng *tensor.RNG) *Linear {
	return &Linear{
		W: newParam(name+".W", tensor.RandNorm(rng, in, out, std)),
		B: newParam(name+".B", tensor.New(1, out)),
	}
}

// Forward computes y = x·W + b.
func (l *Linear) Forward(a *arena, x *tensor.Mat) *tensor.Mat {
	y := tensor.MatMulInto(a.get(x.Rows, l.W.W.Cols), x, l.W.W)
	tensor.AddRowInPlace(y, l.B.W.Data)
	return y
}

// Backward accumulates parameter gradients and returns dx. x must be the
// forward input (saved or recomputed). xᵀ·dy is formed in a temporary and
// then added: accumulating it into W.G product by product would interleave
// this micro-batch's terms with the earlier ones' sum and reorder the
// additions.
func (l *Linear) Backward(a *arena, x, dy *tensor.Mat) *tensor.Mat {
	g := tensor.TMatMulInto(a.get(x.Cols, dy.Cols), x, dy)
	tensor.AddInPlace(l.W.G, g)
	a.put(g)
	tensor.AccumulateRows(l.B.G.Data, dy)
	return tensor.MatMulTInto(a.get(dy.Rows, l.W.W.Rows), dy, l.W.W)
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned gain and bias.
type LayerNorm struct {
	// G is the [1, dim] gain.
	G *Param
	// B is the [1, dim] bias.
	B *Param
	// Eps is the variance epsilon.
	Eps float64
}

// NewLayerNorm initializes gain 1, bias 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	g := tensor.New(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{G: newParam(name+".G", g), B: newParam(name+".B", tensor.New(1, dim)), Eps: 1e-5}
}

// lnCtx holds the per-row statistics LayerNorm's backward needs; the zero
// value is "not saved".
type lnCtx struct {
	xhat *tensor.Mat // normalized input
	rstd *tensor.Mat // [1, rows] per-row 1/σ
}

func (c lnCtx) bytes() int64 {
	if c.xhat == nil {
		return 0
	}
	return c.xhat.Bytes() + c.rstd.Bytes()
}

func (c lnCtx) release(a *arena) { a.put(c.xhat, c.rstd) }

// keep returns the LayerNorm output ln and its context if saved; otherwise it
// releases both and returns the zero pair, so Backward recomputes them.
func (c lnCtx) keep(a *arena, saved bool, ln *tensor.Mat) (*tensor.Mat, lnCtx) {
	if saved {
		return ln, c
	}
	a.put(ln)
	c.release(a)
	return nil, lnCtx{}
}

// Forward returns the normalized output and its backward context.
func (l *LayerNorm) Forward(a *arena, x *tensor.Mat) (*tensor.Mat, lnCtx) {
	y := a.get(x.Rows, x.Cols)
	ctx := lnCtx{xhat: a.get(x.Rows, x.Cols), rstd: a.get(1, x.Rows)}
	tensor.LayerNormInto(y, ctx.xhat, ctx.rstd.Data, x, l.G.W.Data, l.B.W.Data, l.Eps)
	return y, ctx
}

// Backward accumulates gain/bias gradients and returns dx.
func (l *LayerNorm) Backward(a *arena, ctx lnCtx, dy *tensor.Mat) *tensor.Mat {
	return tensor.LayerNormBackwardInto(a.get(dy.Rows, dy.Cols), dy, ctx.xhat, ctx.rstd.Data, l.G.W.Data, l.G.G.Data, l.B.G.Data)
}

// Params returns the trainable parameters.
func (l *LayerNorm) Params() []*Param { return []*Param{l.G, l.B} }

// geluForward applies the tanh-approximated GELU element-wise.
func geluForward(a *arena, x *tensor.Mat) *tensor.Mat {
	return tensor.GELUInto(a.get(x.Rows, x.Cols), x)
}

// geluBackward returns dx given the forward input.
func geluBackward(a *arena, x, dy *tensor.Mat) *tensor.Mat {
	return tensor.GELUBackwardInto(a.get(x.Rows, x.Cols), x, dy)
}

// attentionCore computes multi-head causal attention O = softmax(QKᵀ/√dh)·V
// head by head. It is the naive counterpart of the paper's FlashAttention
// unit; the per-head probability matrices are its "internally saved tensors".
// A coreCtx with no matrices is "not saved".
type coreCtx struct {
	probs []*tensor.Mat // per-head [T, T] softmax outputs
}

// release returns the probability matrices to a and empties the context,
// keeping the slice for the next attentionCore.
func (c *coreCtx) release(a *arena) {
	a.put(c.probs...)
	clear(c.probs)
	c.probs = c.probs[:0]
}

// attentionCore appends the per-head probability matrices to probs, which
// must be empty: a consumed context's slice, or nil.
func attentionCore(a *arena, q, k, v *tensor.Mat, heads int, probs []*tensor.Mat) (*tensor.Mat, coreCtx) {
	T := q.Rows
	dh := q.Cols / heads
	out := a.get(T, q.Cols)
	ctx := coreCtx{probs: probs[:0]}
	scale := 1 / math.Sqrt(float64(dh))
	qh, kh, vh, oh := a.get(T, dh), a.get(T, dh), a.get(T, dh), a.get(T, dh)
	for h := 0; h < heads; h++ {
		headView(qh, q, h)
		headView(kh, k, h)
		headView(vh, v, h)
		// The causal mask: only j ≤ i is formed, the rest is -Inf.
		scores := tensor.MatMulTLowerInto(a.get(T, T), qh, kh, math.Inf(-1))
		for i := 0; i < T; i++ {
			row := scores.Data[i*T : i*T+i+1]
			for j := range row {
				row[j] *= scale
			}
		}
		// The masked scores are dead once normalized: softmax in place.
		p := tensor.CausalSoftmaxInto(scores, scores)
		ctx.probs = append(ctx.probs, p)
		writeHead(out, tensor.MatMulLowerInto(oh, p, vh), h)
	}
	a.put(qh, kh, vh, oh)
	return out, ctx
}

// attentionCoreBackward returns dq, dk, dv given the forward inputs and the
// saved probability matrices.
func attentionCoreBackward(a *arena, ctx coreCtx, q, k, v, dout *tensor.Mat, heads int) (dq, dk, dv *tensor.Mat) {
	T := q.Rows
	dh := q.Cols / heads
	dq, dk, dv = a.get(T, q.Cols), a.get(T, q.Cols), a.get(T, q.Cols)
	scale := 1 / math.Sqrt(float64(dh))
	qh, kh, vh, doh, tmp := a.get(T, dh), a.get(T, dh), a.get(T, dh), a.get(T, dh), a.get(T, dh)
	ds := a.get(T, T)
	for h := 0; h < heads; h++ {
		headView(qh, q, h)
		headView(kh, k, h)
		headView(vh, v, h)
		headView(doh, dout, h)
		p := ctx.probs[h]
		writeHead(dv, tensor.TMatMulLowerInto(tmp, p, doh), h)
		// Softmax backward, row by row over dP = dO·Vᵀ in place:
		// dS = P ⊙ (dP − rowsum(dP⊙P)), zero above the diagonal.
		tensor.MatMulTLowerInto(ds, doh, vh, 0)
		for i := 0; i < T; i++ {
			prow, drow := p.Data[i*T:(i+1)*T], ds.Data[i*T:(i+1)*T]
			var dot float64
			for j := 0; j <= i; j++ {
				dot += drow[j] * prow[j]
			}
			for j := 0; j <= i; j++ {
				drow[j] = prow[j] * (drow[j] - dot) * scale
			}
		}
		writeHead(dq, tensor.MatMulLowerInto(tmp, ds, kh), h)
		writeHead(dk, tensor.TMatMulLowerInto(tmp, ds, qh), h)
	}
	a.put(qh, kh, vh, doh, tmp, ds)
	return dq, dk, dv
}

// headView copies head h's columns of m into the [T, dh] matrix dst.
func headView(dst, m *tensor.Mat, h int) {
	dh := dst.Cols
	for i := 0; i < m.Rows; i++ {
		copy(dst.Data[i*dh:(i+1)*dh], m.Data[i*m.Cols+h*dh:i*m.Cols+(h+1)*dh])
	}
}

// writeHead copies a [T, dh] matrix into head h's columns of m.
func writeHead(m, src *tensor.Mat, h int) {
	dh := src.Cols
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[i*m.Cols+h*dh:i*m.Cols+(h+1)*dh], src.Data[i*dh:(i+1)*dh])
	}
}

// Embedding maps token ids to vectors, with learned positional embeddings.
type Embedding struct {
	// Tok is the [vocab, dim] token table.
	Tok *Param
	// Pos is the [maxSeq, dim] position table.
	Pos *Param
}

// NewEmbedding initializes both tables with N(0, std²).
func NewEmbedding(name string, vocab, maxSeq, dim int, std float64, rng *tensor.RNG) *Embedding {
	return &Embedding{
		Tok: newParam(name+".Tok", tensor.RandNorm(rng, vocab, dim, std)),
		Pos: newParam(name+".Pos", tensor.RandNorm(rng, maxSeq, dim, std)),
	}
}

// Forward returns the [len(tokens), dim] embedded sequence.
func (e *Embedding) Forward(a *arena, tokens []int) *tensor.Mat {
	dim := e.Tok.W.Cols
	out := a.get(len(tokens), dim)
	for i, t := range tokens {
		if t < 0 || t >= e.Tok.W.Rows {
			panic(fmt.Sprintf("train: token %d out of vocab %d", t, e.Tok.W.Rows))
		}
		for j := 0; j < dim; j++ {
			out.Data[i*dim+j] = e.Tok.W.At(t, j) + e.Pos.W.At(i, j)
		}
	}
	return out
}

// Backward accumulates table gradients from dy.
func (e *Embedding) Backward(tokens []int, dy *tensor.Mat) {
	dim := e.Tok.W.Cols
	for i, t := range tokens {
		for j := 0; j < dim; j++ {
			g := dy.Data[i*dim+j]
			e.Tok.G.Data[t*dim+j] += g
			e.Pos.G.Data[i*dim+j] += g
		}
	}
}

// Params returns the trainable parameters.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }

// CrossEntropy computes the mean next-token loss and the logits gradient.
func CrossEntropy(a *arena, logits *tensor.Mat, targets []int) (float64, *tensor.Mat) {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("train: %d targets for %d logit rows", len(targets), logits.Rows))
	}
	// dlogits = (softmax − onehot)/n, built in the buffer holding the softmax.
	dlogits := tensor.SoftmaxRowsInto(a.get(logits.Rows, logits.Cols), logits)
	var loss float64
	inv := 1 / float64(len(targets))
	for i, t := range targets {
		prob := dlogits.At(i, t)
		dlogits.Set(i, t, prob-1)
		if prob < 1e-12 {
			prob = 1e-12
		}
		loss -= math.Log(prob)
	}
	tensor.ScaleInPlace(dlogits, inv)
	return loss * inv, dlogits
}
