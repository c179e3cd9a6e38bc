package tensor

import (
	"math"
	"testing"
)

// The element-wise oracle: the loops the kernels replaced, as they stood in
// internal/train (Adam.Step, LayerNorm, the GELU pair, Linear's bias loops,
// CrossEntropy's scaling) and here (SoftmaxRowsInto, AddInPlace).

func refAdd(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func refAdam(w, g, m, v []float64, s *AdamStep) {
	for j := range w {
		gj := g[j] * s.Inv
		m[j] = s.Beta1*m[j] + (1-s.Beta1)*gj
		v[j] = s.Beta2*v[j] + (1-s.Beta2)*gj*gj
		mh := m[j] / s.C1
		vh := v[j] / s.C2
		w[j] -= s.LR * mh / (math.Sqrt(vh) + s.Eps)
		g[j] = 0
	}
}

func refLayerNorm(x *Mat, gain, bias []float64, eps float64) (y, xhat *Mat, rstd []float64) {
	y, xhat, rstd = New(x.Rows, x.Cols), New(x.Rows, x.Cols), make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := v - mean
			varsum += d * d
		}
		r := 1 / math.Sqrt(varsum/float64(len(row))+eps)
		rstd[i] = r
		xh := xhat.Data[i*x.Cols : (i+1)*x.Cols]
		yr := y.Data[i*x.Cols : (i+1)*x.Cols]
		for j, v := range row {
			xh[j] = (v - mean) * r
			yr[j] = xh[j]*gain[j] + bias[j]
		}
	}
	return y, xhat, rstd
}

func refLayerNormBackward(dy, xhat *Mat, rstd, gain, gg, gb []float64) *Mat {
	dx := New(dy.Rows, dy.Cols)
	n := float64(dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Data[i*dy.Cols : (i+1)*dy.Cols]
		xh := xhat.Data[i*dy.Cols : (i+1)*dy.Cols]
		var sumDy, sumDyXh float64
		for j, v := range dyr {
			g := v * gain[j]
			sumDy += g
			sumDyXh += g * xh[j]
			gg[j] += v * xh[j]
			gb[j] += v
		}
		dxr := dx.Data[i*dy.Cols : (i+1)*dy.Cols]
		for j, v := range dyr {
			g := v * gain[j]
			dxr[j] = (g - sumDy/n - xh[j]*sumDyXh/n) * rstd[i]
		}
	}
	return dx
}

func refGELU(x *Mat) *Mat {
	y := New(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 0.5 * v * (1 + math.Tanh(geluK*(v+geluC*v*v*v)))
	}
	return y
}

func refGELUBackward(x, dy *Mat) *Mat {
	dx := New(x.Rows, x.Cols)
	for i, v := range x.Data {
		inner := geluK * (v + geluC*v*v*v)
		t := math.Tanh(inner)
		dinner := geluK * (1 + 3*geluC*v*v)
		dx.Data[i] = dy.Data[i] * (0.5*(1+t) + 0.5*v*(1-t*t)*dinner)
	}
	return dx
}

// refSoftmax is the row softmax over the first length(i) columns of row i;
// the rest of the row is +0.
func refSoftmax(a *Mat, length func(i int) int) *Mat {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : i*a.Cols+length(i)]
		orow := out.Data[i*a.Cols : i*a.Cols+length(i)]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		if math.IsInf(max, -1) {
			clear(orow)
			continue
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// specials are the values planted among the normal draws: both zeros, NaN,
// both infinities, subnormals of both signs and the largest finite value.
var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310, math.MaxFloat64}

// elementwiseOperand draws a rows×cols operand with N(0, std²) entries and,
// if planted, about one entry in five replaced by a special.
func elementwiseOperand(rng *RNG, rows, cols int, std float64, planted bool) *Mat {
	m := RandNorm(rng, rows, cols, std)
	if planted {
		for i := range m.Data {
			if rng.Intn(5) == 0 {
				m.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return m
}

// checkElementwise holds every element-wise operation on the current path to
// its oracle, bit for bit (NaN as one value, see sameBits), on rows×cols
// operands drawn from rng.
func checkElementwise(t testing.TB, rng *RNG, rows, cols int, planted bool) {
	t.Helper()
	draw := func(std float64) *Mat { return elementwiseOperand(rng, rows, cols, std, planted) }
	vec := func(std float64) []float64 { return elementwiseOperand(rng, 1, cols, std, planted).Data }
	fail := func(op string, i int) {
		t.Helper()
		if i >= 0 {
			t.Errorf("%s %dx%d (planted %v): element %d differs from the reference", op, rows, cols, planted, i)
		}
	}
	slice := func(d []float64) *Mat { return FromSlice(1, len(d), d) }

	a, b := draw(1), draw(1)
	fail("AddInto", sameBits(AddInto(poisoned(rows, cols), a, b), FromSlice(rows, cols, refAdd(a.Data, b.Data))))
	c := a.Clone()
	AddInPlace(c, b)
	fail("AddInPlace", sameBits(c, FromSlice(rows, cols, refAdd(a.Data, b.Data))))

	bias := vec(1)
	c = a.Clone()
	AddRowInPlace(c, bias)
	want := a.Clone()
	for i := 0; i < rows; i++ {
		row := want.Data[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += bias[j]
		}
	}
	fail("AddRowInPlace", sameBits(c, want))

	acc, wantAcc := vec(1), []float64(nil)
	wantAcc = append(wantAcc, acc...)
	AccumulateRows(acc, a)
	for i := 0; i < rows; i++ {
		for j, v := range a.Data[i*cols : (i+1)*cols] {
			wantAcc[j] += v
		}
	}
	fail("AccumulateRows", sameBits(slice(acc), slice(wantAcc)))

	c = a.Clone()
	inv := 1 / float64(rows)
	ScaleInPlace(c, inv)
	want = a.Clone()
	for i := range want.Data {
		want.Data[i] *= inv
	}
	fail("ScaleInPlace", sameBits(c, want))

	step := &AdamStep{Inv: 1 / 3.0, Beta1: 0.9, Beta2: 0.999, C1: 1 - math.Pow(0.9, 3), C2: 1 - math.Pow(0.999, 3), LR: 1e-3, Eps: 1e-8}
	w, g, m, v := draw(0.02), draw(1), draw(0.1), draw(0.1)
	for i := range v.Data {
		v.Data[i] = math.Abs(v.Data[i])
	}
	rw, rg, rm, rv := w.Clone(), g.Clone(), m.Clone(), v.Clone()
	AdamUpdate(w.Data, g.Data, m.Data, v.Data, step)
	refAdam(rw.Data, rg.Data, rm.Data, rv.Data, step)
	fail("Adam w", sameBits(w, rw))
	fail("Adam g", sameBits(g, rg))
	fail("Adam m", sameBits(m, rm))
	fail("Adam v", sameBits(v, rv))

	x, gain, lnBias := draw(1), vec(1), vec(0.1)
	y, xhat, rstd := poisoned(rows, cols), poisoned(rows, cols), poisoned(1, rows).Data
	LayerNormInto(y, xhat, rstd, x, gain, lnBias, 1e-5)
	ry, rxhat, rrstd := refLayerNorm(x, gain, lnBias, 1e-5)
	fail("LayerNorm y", sameBits(y, ry))
	fail("LayerNorm xhat", sameBits(xhat, rxhat))
	fail("LayerNorm rstd", sameBits(slice(rstd), slice(rrstd)))

	dy, gg, gb := draw(1), vec(0.1), vec(0.1)
	rgg, rgb := append([]float64(nil), gg...), append([]float64(nil), gb...)
	dx := LayerNormBackwardInto(poisoned(rows, cols), dy, rxhat, rrstd, gain, gg, gb)
	fail("LayerNormBackward dx", sameBits(dx, refLayerNormBackward(dy, rxhat, rrstd, gain, rgg, rgb)))
	fail("LayerNormBackward gg", sameBits(slice(gg), slice(rgg)))
	fail("LayerNormBackward gb", sameBits(slice(gb), slice(rgb)))

	// GELU at three scales: the executor's (tanh's rational branch), unit
	// (both branches) and wide (the saturation).
	for _, std := range []float64{0.2, 1, 30} {
		x := draw(std)
		fail("GELU", sameBits(GELUInto(poisoned(rows, cols), x), refGELU(x)))
		dy := draw(1)
		fail("GELUBackward", sameBits(GELUBackwardInto(poisoned(rows, cols), x, dy), refGELUBackward(x, dy)))
	}

	for _, std := range []float64{1, 300} {
		s := draw(std)
		full := func(int) int { return cols }
		fail("SoftmaxRows", sameBits(SoftmaxRowsInto(poisoned(rows, cols), s), refSoftmax(s, full)))
		causal := func(i int) int { return min(i+1, cols) }
		fail("CausalSoftmax", sameBits(CausalSoftmaxInto(poisoned(rows, cols), s), refSoftmax(s, causal)))
		in := s.Clone()
		fail("SoftmaxRows in place", sameBits(SoftmaxRowsInto(in, in), refSoftmax(s, full)))
	}
}

// TestElementwiseBitIdentical holds every element-wise operation to the loop
// it replaced, on each path: rows 1..9 (every residue of the four-row
// blocks) by columns 0..17 (every residue of the four-lane groups), plain
// and with ±0, NaN, ±Inf, subnormals and MaxFloat64 planted, and the
// train_1f1b shapes.
func TestElementwiseBitIdentical(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := NewRNG(31)
		for rows := 1; rows <= 9; rows++ {
			for cols := 0; cols <= 17; cols++ {
				checkElementwise(t, rng, rows, cols, false)
				checkElementwise(t, rng, rows, cols, true)
			}
		}
		for _, s := range [][2]int{{32, 64}, {32, 128}, {32, 32}} {
			checkElementwise(t, rng, s[0], s[1], false)
		}
	})
}

// TestSoftmaxPinsTheMax pins the max's semantics where they show: a NaN
// never becomes the max, so a row of -Inf and NaN keeps the max -Inf and
// becomes a zero row, where a max that lets NaN through (VMAXPD's operands
// the other way round) makes it NaN. Four rows, so the vector path takes
// them together.
func TestSoftmaxPinsTheMax(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a := FromSlice(4, 3, []float64{
		-inf, -inf, nan,
		nan, nan, nan,
		1, 2, nan,
		0, math.Copysign(0, -1), -inf,
	})
	onEachPath(t, func(t *testing.T) {
		got := SoftmaxRowsInto(New(4, 3), a)
		if i := sameBits(got, refSoftmax(a, func(int) int { return 3 })); i >= 0 {
			t.Fatalf("element %d: got %v", i, got.Data)
		}
		for j, v := range got.Data[:6] {
			if math.Float64bits(v) != 0 {
				t.Errorf("element %d = %v, want +0: a NaN became the row max", j, v)
			}
		}
	})
}

// TestCausalSoftmaxMatchesMaskedRows is the attention invariant the causal
// skip rests on: on finite scores, the softmax over [0, i] is the full-row
// softmax of the row masked to -Inf past i, bit for bit.
func TestCausalSoftmaxMatchesMaskedRows(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := NewRNG(5)
		for _, n := range []int{1, 3, 4, 7, 9, 32} {
			s := randMat(rng, n, n)
			masked := s.Clone()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					masked.Set(i, j, math.Inf(-1))
				}
			}
			if i := sameBits(CausalSoftmaxInto(New(n, n), s), SoftmaxRows(masked)); i >= 0 {
				t.Errorf("%dx%d: element %d differs from the masked softmax", n, n, i)
			}
		}
	})
}

// FuzzElementwiseVsScalar draws the shape, the seed and the planting from
// the fuzz input and holds every element-wise operation of each path to its
// oracle.
func FuzzElementwiseVsScalar(f *testing.F) {
	f.Add(uint8(32), uint8(64), uint64(1), false)
	f.Add(uint8(5), uint8(7), uint64(2), true)
	f.Add(uint8(4), uint8(1), uint64(3), true)
	f.Add(uint8(9), uint8(17), uint64(4), false)
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed uint64, planted bool) {
		r, c := int(rows%40)+1, int(cols%70)
		for _, p := range kernelPaths { // without AVX2 the simd pass repeats the portable one
			was := setAVX2(p.simd)
			checkElementwise(t, NewRNG(seed), r, c, planted)
			setAVX2(was)
			if t.Failed() {
				t.Fatalf("on the %s path", p.name)
			}
		}
	})
}
