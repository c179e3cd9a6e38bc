package train

import (
	"math"
	"testing"

	"adapipe/internal/tensor"
)

// numericGrad perturbs each entry of data and evaluates loss() centrally.
func numericGrad(loss func() float64, data []float64) []float64 {
	const h = 1e-6
	out := make([]float64, len(data))
	for i := range data {
		orig := data[i]
		data[i] = orig + h
		lp := loss()
		data[i] = orig - h
		lm := loss()
		data[i] = orig
		out[i] = (lp - lm) / (2 * h)
	}
	return out
}

// maxRelErr compares gradients with a mixed absolute/relative metric: the
// 1e-3 floor keeps the finite-difference roundoff (~1e-9 absolute) from
// dominating near-zero entries, while real backward bugs show errors of
// order one.
func maxRelErr(analytic, numeric []float64) float64 {
	var worst float64
	for i := range analytic {
		scale := math.Abs(analytic[i]) + math.Abs(numeric[i]) + 1e-3
		if e := math.Abs(analytic[i]-numeric[i]) / scale; e > worst {
			worst = e
		}
	}
	return worst
}

// projLoss is a fixed random linear functional of the output, giving a
// scalar loss whose output gradient is the projection itself.
func projLoss(y, proj *tensor.Mat) float64 {
	var s float64
	for i := range y.Data {
		s += y.Data[i] * proj.Data[i]
	}
	return s
}

const gradTol = 1e-5

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewLinear("l", 5, 4, 0.5, rng)
	x := tensor.RandNorm(rng, 3, 5, 1)
	proj := tensor.RandNorm(rng, 3, 4, 1)
	loss := func() float64 { return projLoss(l.Forward(nil, x), proj) }

	l.W.G.Zero()
	l.B.G.Zero()
	dx := l.Backward(nil, x, proj)

	if e := maxRelErr(l.W.G.Data, numericGrad(loss, l.W.W.Data)); e > gradTol {
		t.Errorf("dW rel err %g", e)
	}
	if e := maxRelErr(l.B.G.Data, numericGrad(loss, l.B.W.Data)); e > gradTol {
		t.Errorf("dB rel err %g", e)
	}
	if e := maxRelErr(dx.Data, numericGrad(loss, x.Data)); e > gradTol {
		t.Errorf("dx rel err %g", e)
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := NewLayerNorm("ln", 6)
	// Non-trivial gain/bias so their gradients are exercised.
	for i := range l.G.W.Data {
		l.G.W.Data[i] = 1 + 0.3*rng.Norm()
		l.B.W.Data[i] = 0.2 * rng.Norm()
	}
	x := tensor.RandNorm(rng, 4, 6, 1)
	proj := tensor.RandNorm(rng, 4, 6, 1)
	loss := func() float64 {
		y, _ := l.Forward(nil, x)
		return projLoss(y, proj)
	}
	l.G.G.Zero()
	l.B.G.Zero()
	_, ctx := l.Forward(nil, x)
	dx := l.Backward(nil, ctx, proj)

	if e := maxRelErr(dx.Data, numericGrad(loss, x.Data)); e > gradTol {
		t.Errorf("dx rel err %g", e)
	}
	if e := maxRelErr(l.G.G.Data, numericGrad(loss, l.G.W.Data)); e > gradTol {
		t.Errorf("dGain rel err %g", e)
	}
	if e := maxRelErr(l.B.G.Data, numericGrad(loss, l.B.W.Data)); e > gradTol {
		t.Errorf("dBias rel err %g", e)
	}
}

func TestGELUGradients(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.RandNorm(rng, 3, 7, 2)
	proj := tensor.RandNorm(rng, 3, 7, 1)
	loss := func() float64 { return projLoss(geluForward(nil, x), proj) }
	dx := geluBackward(nil, x, proj)
	if e := maxRelErr(dx.Data, numericGrad(loss, x.Data)); e > gradTol {
		t.Errorf("gelu dx rel err %g", e)
	}
}

func TestAttentionCoreGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	const T, dim, heads = 5, 8, 2
	q := tensor.RandNorm(rng, T, dim, 1)
	k := tensor.RandNorm(rng, T, dim, 1)
	v := tensor.RandNorm(rng, T, dim, 1)
	proj := tensor.RandNorm(rng, T, dim, 1)
	loss := func() float64 {
		y, _ := attentionCore(nil, q, k, v, heads, nil)
		return projLoss(y, proj)
	}
	_, ctx := attentionCore(nil, q, k, v, heads, nil)
	dq, dk, dv := attentionCoreBackward(nil, ctx, q, k, v, proj, heads)
	if e := maxRelErr(dq.Data, numericGrad(loss, q.Data)); e > gradTol {
		t.Errorf("dq rel err %g", e)
	}
	if e := maxRelErr(dk.Data, numericGrad(loss, k.Data)); e > gradTol {
		t.Errorf("dk rel err %g", e)
	}
	if e := maxRelErr(dv.Data, numericGrad(loss, v.Data)); e > gradTol {
		t.Errorf("dv rel err %g", e)
	}
}

func TestAttentionCausality(t *testing.T) {
	rng := tensor.NewRNG(15)
	const T, dim, heads = 6, 8, 2
	q := tensor.RandNorm(rng, T, dim, 1)
	k := tensor.RandNorm(rng, T, dim, 1)
	v := tensor.RandNorm(rng, T, dim, 1)
	y1, _ := attentionCore(nil, q, k, v, heads, nil)
	// Perturbing a future position must not change earlier outputs.
	k.Set(T-1, 0, k.At(T-1, 0)+10)
	v.Set(T-1, 3, v.At(T-1, 3)-7)
	y2, _ := attentionCore(nil, q, k, v, heads, nil)
	for i := 0; i < T-1; i++ {
		for j := 0; j < dim; j++ {
			if y1.At(i, j) != y2.At(i, j) {
				t.Fatalf("output at position %d changed after perturbing position %d", i, T-1)
			}
		}
	}
}

func TestEmbeddingGradients(t *testing.T) {
	rng := tensor.NewRNG(16)
	e := NewEmbedding("e", 10, 8, 4, 0.5, rng)
	tokens := []int{3, 1, 3, 7}
	proj := tensor.RandNorm(rng, 4, 4, 1)
	loss := func() float64 { return projLoss(e.Forward(nil, tokens), proj) }
	e.Tok.G.Zero()
	e.Pos.G.Zero()
	e.Backward(tokens, proj)
	if err := maxRelErr(e.Tok.G.Data, numericGrad(loss, e.Tok.W.Data)); err > gradTol {
		t.Errorf("dTok rel err %g", err)
	}
	if err := maxRelErr(e.Pos.G.Data, numericGrad(loss, e.Pos.W.Data)); err > gradTol {
		t.Errorf("dPos rel err %g", err)
	}
	// Repeated token 3 must accumulate two contributions.
	var rowSum float64
	for j := 0; j < 4; j++ {
		rowSum += math.Abs(e.Tok.G.At(3, j))
	}
	if rowSum == 0 {
		t.Error("repeated token has zero gradient")
	}
}

func TestCrossEntropyGradients(t *testing.T) {
	rng := tensor.NewRNG(17)
	logits := tensor.RandNorm(rng, 4, 6, 1)
	targets := []int{2, 0, 5, 1}
	loss := func() float64 {
		l, _ := CrossEntropy(nil, logits, targets)
		return l
	}
	_, dlogits := CrossEntropy(nil, logits, targets)
	if e := maxRelErr(dlogits.Data, numericGrad(loss, logits.Data)); e > gradTol {
		t.Errorf("dlogits rel err %g", e)
	}
	// Loss of a uniform distribution is log(vocab).
	uniform := tensor.New(2, 8)
	l, _ := CrossEntropy(nil, uniform, []int{0, 3})
	if math.Abs(l-math.Log(8)) > 1e-12 {
		t.Errorf("uniform CE = %g, want log 8 = %g", l, math.Log(8))
	}
}

func TestAttnBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(18)
	b := NewAttnBlock("b", 8, 2, rng)
	x := tensor.RandNorm(rng, 4, 8, 1)
	proj := tensor.RandNorm(rng, 4, 8, 1)
	loss := func() float64 {
		y, _ := b.Forward(nil, x, SaveAll(), nil)
		return projLoss(y, proj)
	}
	_, ctx := b.Forward(nil, x, SaveAll(), nil)
	dx := b.Backward(nil, ctx, proj)
	if e := maxRelErr(dx.Data, numericGrad(loss, x.Data)); e > gradTol {
		t.Errorf("attn block dx rel err %g", e)
	}
	for _, p := range b.Params() {
		analytic := append([]float64(nil), p.G.Data...)
		for i := range p.G.Data {
			p.G.Data[i] = 0
		}
		if e := maxRelErr(analytic, numericGrad(loss, p.W.Data)); e > gradTol {
			t.Errorf("attn block %s rel err %g", p.Name, e)
		}
	}
}

// TestFFNBlockGradients checks both forms of the FFN block, GELU and SwiGLU.
func TestFFNBlockGradients(t *testing.T) {
	for _, c := range []struct {
		name  string
		gated bool
		seed  uint64
	}{{"gelu", false, 19}, {"swiglu", true, 21}} {
		t.Run(c.name, func(t *testing.T) {
			rng := tensor.NewRNG(c.seed)
			b := NewFFNBlock("b", 6, 12, c.gated, rng)
			x := tensor.RandNorm(rng, 3, 6, 1)
			proj := tensor.RandNorm(rng, 3, 6, 1)
			loss := func() float64 {
				y, _ := b.Forward(nil, x, SaveAll(), nil)
				return projLoss(y, proj)
			}
			_, ctx := b.Forward(nil, x, SaveAll(), nil)
			dx := b.Backward(nil, ctx, proj)
			if e := maxRelErr(dx.Data, numericGrad(loss, x.Data)); e > gradTol {
				t.Errorf("dx rel err %g", e)
			}
			for _, p := range b.Params() {
				analytic := append([]float64(nil), p.G.Data...)
				for i := range p.G.Data {
					p.G.Data[i] = 0
				}
				if e := maxRelErr(analytic, numericGrad(loss, p.W.Data)); e > gradTol {
					t.Errorf("%s rel err %g", p.Name, e)
				}
			}
		})
	}
}

func TestGatedFFNRecomputeExact(t *testing.T) {
	mk := func() []*Stage {
		net := mustNet(Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 5, GatedFFN: true})
		stages, err := Split(net, []int{0, 6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stages
	}
	corpus := NewCorpus(20, 2048, 3)
	rng := tensor.NewRNG(2)
	tokens, targets := corpus.Sample(12, rng)

	ref := mk()
	l1 := runOnceQuick(ref, tokens, targets)
	g1 := cloneGrads(ref)

	rec := mk()
	for i := range rec[0].Saves {
		rec[0].Saves[i] = SaveNone()
	}
	l2 := runOnceQuick(rec, tokens, targets)
	g2 := cloneGrads(rec)

	if l1 != l2 {
		t.Fatalf("gated recompute changed loss: %.17g vs %.17g", l1, l2)
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatal("gated recompute changed a gradient")
			}
		}
	}
}

func TestGatedNetTrains(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 32, Heads: 4, FFN: 48, Vocab: 32, Seq: 24, Seed: 4, GatedFFN: true}
	res, err := Run(RunConfig{Net: cfg, Bounds: []int{0, 3, 6}, Steps: 40, MicroBatches: 4, LR: 3e-3, DataSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("gated net loss did not descend: %v", res.Losses[:3])
	}
}
