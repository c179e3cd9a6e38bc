package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"adapipe/internal/cpu"
)

func randMat(rng *RNG, r, c int) *Mat { return RandNorm(rng, r, c, 1) }

// transpose is a reference helper for the fused-transpose matmuls.
func transpose(m *Mat) *Mat {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func matsClose(a, b *Mat, tol float64) bool {
	return a.SameShape(b) && MaxAbsDiff(a, b) <= tol
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := randMat(rng, 4, 6)
	id := New(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	if !matsClose(MatMul(a, id), a, 0) {
		t.Error("A·I != A")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	want := FromSlice(2, 2, []float64{19, 22, 43, 50})
	if !matsClose(MatMul(a, b), want, 0) {
		t.Errorf("matmul = %v", MatMul(a, b).Data)
	}
}

func TestFusedTransposeVariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		a := randMat(rng, 3, 5)
		b := randMat(rng, 4, 5)
		c := randMat(rng, 3, 7)
		// A·Bᵀ == A·(Bᵀ)
		if !matsClose(MatMulT(a, b), MatMul(a, transpose(b)), 1e-12) {
			return false
		}
		// Aᵀ·C == (Aᵀ)·C
		return matsClose(TMatMul(a, c), MatMul(transpose(a), c), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddAndScale(t *testing.T) {
	rng := NewRNG(2)
	a := randMat(rng, 3, 3)
	b := randMat(rng, 3, 3)
	sum := AddInto(New(3, 3), a, b)
	for i := range sum.Data {
		if sum.Data[i] != a.Data[i]+b.Data[i] {
			t.Fatal("add mismatch")
		}
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !matsClose(c, sum, 0) {
		t.Fatal("AddInPlace mismatch")
	}
	ScaleInPlace(c, 2.5)
	for i := range c.Data {
		if c.Data[i] != sum.Data[i]*2.5 {
			t.Fatal("scale mismatch")
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	p := SoftmaxRows(a)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %g out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	if p.At(0, 2) <= p.At(0, 0) {
		t.Error("softmax must be monotone in the logits")
	}
	// Fully masked rows are zero, not NaN.
	masked := FromSlice(1, 2, []float64{math.Inf(-1), math.Inf(-1)})
	pm := SoftmaxRows(masked)
	if pm.At(0, 0) != 0 || pm.At(0, 1) != 0 {
		t.Errorf("masked row = %v", pm.Data)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed not remapped")
	}
}

func TestRNGDistributions(t *testing.T) {
	rng := NewRNG(7)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %g", variance)
	}
	for i := 0; i < 1000; i++ {
		if v := rng.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		if v := rng.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestAccessorsAndHelpers(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At")
	}
	if m.Bytes() != 48 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone aliases the original")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero")
	}
	if MaxAbsDiff(FromSlice(1, 2, []float64{1, 5}), FromSlice(1, 2, []float64{2, 3})) != 2 {
		t.Error("MaxAbsDiff")
	}
	nan, inf := math.NaN(), math.Inf(1)
	if d := MaxAbsDiff(FromSlice(1, 2, []float64{nan, 1}), FromSlice(1, 2, []float64{0, 1})); !math.IsInf(d, 1) {
		t.Errorf("MaxAbsDiff(NaN vs 0) = %v, want +Inf", d)
	}
	if d := MaxAbsDiff(FromSlice(1, 3, []float64{nan, inf, -inf}), FromSlice(1, 3, []float64{nan, inf, -inf})); d != 0 {
		t.Errorf("MaxAbsDiff(NaN vs NaN, equal infinities) = %v, want 0", d)
	}
}

func TestPanicsOnShapeErrors(t *testing.T) {
	checkPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	a := New(2, 3)
	b := New(2, 3)
	checkPanics("matmul", func() { MatMul(a, b) })
	checkPanics("matmulT bad", func() { MatMulT(a, New(4, 5)) })
	checkPanics("TmatMul bad", func() { TMatMul(a, New(3, 3)) })
	checkPanics("add", func() { AddInto(a, a, New(3, 2)) })
	checkPanics("fromSlice", func() { FromSlice(2, 2, []float64{1}) })
	checkPanics("negative dims", func() { New(-1, 2) })
	checkPanics("intn zero", func() { NewRNG(1).Intn(0) })
}

func TestMatMulAssociativityWithVector(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		a := randMat(rng, 3, 4)
		b := randMat(rng, 4, 5)
		x := randMat(rng, 5, 1)
		left := MatMul(MatMul(a, b), x)
		right := MatMul(a, MatMul(b, x))
		return matsClose(left, right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The reference oracle: the plain triple loops the blocked kernels replaced,
// kept here (and nowhere else) word for word. Each output element is one
// chain of additions in ascending k from +0, every product formed.

func refMatMul(a, b *Mat) *Mat {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulT(a, b *Mat) *Mat {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func refTMatMul(a, b *Mat) *Mat {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// sameBits reports the first element whose bit pattern differs (the sign of
// zero included), or -1. NaN is one value here: which operand's payload and
// sign a NaN result inherits is the hardware's choice among the operands of an
// addition the compiler is free to commute, so no loop — the reference
// included — pins it.
func sameBits(got, want *Mat) int {
	if !got.SameShape(want) {
		return 0
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// poisoned returns a rows×cols destination full of NaN: the Into kernels must
// ignore what dst held.
func poisoned(rows, cols int) *Mat {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// checkKernels holds the three kernels and their causal variants to the
// oracle, bit for bit, on the products of an m×k, a k×n, an n×k and an m×n
// operand. MatMulLowerInto and TMatMulLowerInto are checked only when b and c
// are finite, the case in which they equal the full products: a 4-row tile
// still forms up to three terms past the diagonal, and a zero factor there
// against a non-finite b gives NaN.
func checkKernels(t testing.TB, a, b, bt, c *Mat) {
	t.Helper()
	if i := sameBits(MatMulInto(poisoned(a.Rows, b.Cols), a, b), refMatMul(a, b)); i >= 0 {
		t.Errorf("MatMul %dx%d·%dx%d: element %d differs from the reference", a.Rows, a.Cols, b.Rows, b.Cols, i)
	}
	if i := sameBits(MatMulTInto(poisoned(a.Rows, bt.Rows), a, bt), refMatMulT(a, bt)); i >= 0 {
		t.Errorf("MatMulT %dx%d·(%dx%d)ᵀ: element %d differs from the reference", a.Rows, a.Cols, bt.Rows, bt.Cols, i)
	}
	if i := sameBits(TMatMulInto(poisoned(a.Cols, c.Cols), a, c), refTMatMul(a, c)); i >= 0 {
		t.Errorf("TMatMul (%dx%d)ᵀ·%dx%d: element %d differs from the reference", a.Rows, a.Cols, c.Rows, c.Cols, i)
	}
	lower := refMatMulT(a, bt)
	for i := 0; i < lower.Rows; i++ {
		for j := i + 1; j < lower.Cols; j++ {
			lower.Set(i, j, math.Inf(-1))
		}
	}
	if i := sameBits(MatMulTLowerInto(poisoned(a.Rows, bt.Rows), a, bt, math.Inf(-1)), lower); i >= 0 {
		t.Errorf("MatMulTLower %dx%d·(%dx%d)ᵀ: element %d differs from the reference", a.Rows, a.Cols, bt.Rows, bt.Cols, i)
	}
	if !finite(b) || !finite(c) {
		return
	}
	// The causal variants of MatMul and TMatMul, on an a whose upper triangle
	// is zero.
	tri := a.Clone()
	for i := 0; i < a.Rows; i++ {
		for k := i + 1; k < a.Cols; k++ {
			tri.Set(i, k, 0)
		}
	}
	if i := sameBits(MatMulLowerInto(poisoned(a.Rows, b.Cols), tri, b), refMatMul(tri, b)); i >= 0 {
		t.Errorf("MatMulLower %dx%d·%dx%d: element %d differs from the reference", a.Rows, a.Cols, b.Rows, b.Cols, i)
	}
	if i := sameBits(TMatMulLowerInto(poisoned(a.Cols, c.Cols), tri, c), refTMatMul(tri, c)); i >= 0 {
		t.Errorf("TMatMulLower (%dx%d)ᵀ·%dx%d: element %d differs from the reference", a.Rows, a.Cols, c.Rows, c.Cols, i)
	}
}

// finite reports whether every element of m is finite.
func finite(m *Mat) bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// plant overwrites about one element in every of m with v.
func plant(rng *RNG, m *Mat, every int, v float64) {
	for i := range m.Data {
		if rng.Intn(every) == 0 {
			m.Data[i] = v
		}
	}
}

// kernelOperands draws the four operands checkKernels wants. zeros plants
// exact zeros (both signs) in a; specials plants ±Inf and NaN in the other
// operands, and −Inf and NaN in a — so a zero in a meets a non-finite factor
// on every product, and a kernel that left out a 0·Inf term would read finite
// where the oracle reads NaN.
func kernelOperands(rng *RNG, m, k, n int, zeros, specials bool) (a, b, bt, c *Mat) {
	a, b, bt, c = randMat(rng, m, k), randMat(rng, k, n), randMat(rng, n, k), randMat(rng, m, n)
	if zeros {
		plant(rng, a, 3, 0)
		plant(rng, a, 7, math.Copysign(0, -1))
	}
	if specials {
		for _, o := range []*Mat{b, bt, c} {
			plant(rng, o, 5, math.Inf(1))
			plant(rng, o, 5, math.Inf(-1))
			plant(rng, o, 9, math.NaN())
		}
		plant(rng, a, 11, math.Inf(-1))
		plant(rng, a, 13, math.NaN())
	}
	return a, b, bt, c
}

// kernelPaths are the three kernel paths, widest first: the 4×16 tiles, the
// 4×8 tiles (the element-wise kernels are AVX2 at both) and the portable
// loops.
var kernelPaths = []string{"avx512", "avx2", "generic"}

// hasPath reports whether this CPU runs the named kernel path.
func hasPath(name string) bool {
	was := setLevel(name)
	return setLevel(was) == name
}

// onEachPath runs test once per kernel path this CPU has, switched through
// the hook.
func onEachPath(t *testing.T, test func(t *testing.T)) {
	for _, p := range kernelPaths {
		if !hasPath(p) {
			t.Logf("%s: not on this CPU", p)
			continue
		}
		t.Run(p, func(t *testing.T) {
			defer setLevel(setLevel(p))
			test(t)
		})
	}
}

// TestDefaultLevelIsWidest pins the dispatch itself, which no bit test can
// see: every path computes the same bits, so a start-up level that stayed
// narrower than the CPU allows would pass them all. The level is avx512
// exactly when the CPU has AVX-512F, else avx2 exactly when it has AVX2.
func TestDefaultLevelIsWidest(t *testing.T) {
	want := "generic"
	switch {
	case cpu.AVX512:
		want = "avx512"
	case cpu.AVX2:
		want = "avx2"
	}
	if got := level.String(); got != want {
		t.Errorf("start-up level %s, want %s (AVX512 %v, AVX2 %v)", got, want, cpu.AVX512, cpu.AVX2)
	}
}

// TestKernelsBitIdenticalToReference is the equality the executor's
// bit-identical losses rest on, on each kernel path: every residue of rows
// and cols modulo the block widths of all paths (the vector tiles are 4 rows
// by 16 and by 8 columns, the portable block 2 by 4; columns 1..33 hold a
// 16-column tile, an 8-column one and a portable tail in one product) and
// inner 0..9, the degenerate shapes, inner dimensions long enough to make
// MatMulT pack in chunks and in groups of panels, and the shapes of the
// train_1f1b workload — with and without planted zeros and non-finite values.
// Float64bits, not a tolerance.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for m := 1; m <= 9; m++ {
		for k := 0; k <= 9; k++ {
			for n := 1; n <= 33; n++ {
				shapes = append(shapes, shape{m, k, n})
			}
		}
	}
	shapes = append(shapes,
		shape{1, 1, 13}, shape{1, 13, 1}, shape{13, 1, 1}, shape{0, 3, 2}, shape{3, 2, 0},
		// MatMulT's panels: one chunk in groups of 2 panels, then 2 and 3 chunks.
		shape{8, 100, 40}, shape{4, 300, 8}, shape{5, 600, 17},
		// The 16-column panels: a chunk is 128 deep, so inner 128 is one chunk,
		// 129 two and 257 three (two on the 8-column panels); 40 deep, three
		// panels are packed at a time.
		shape{4, 128, 24}, shape{5, 129, 40}, shape{8, 257, 33}, shape{8, 40, 64},
		// bench/train.go tensorProbe: x·W_up, x·W_q, q·kᵀ, dy·Wᵀ, xᵀ·dy — and the per-head attention products.
		shape{32, 64, 128}, shape{32, 64, 64}, shape{32, 64, 32}, shape{32, 128, 64}, shape{64, 32, 128},
		shape{32, 16, 32}, shape{32, 32, 16})
	onEachPath(t, func(t *testing.T) {
		rng := NewRNG(24)
		for _, s := range shapes {
			for variant := 0; variant < 4; variant++ {
				a, b, bt, c := kernelOperands(rng, s.m, s.k, s.n, variant&1 != 0, variant&2 != 0)
				checkKernels(t, a, b, bt, c)
			}
		}
	})
}

// FuzzKernelsVsReference draws the shape, the seed and the planting from the
// fuzz input and holds the kernels of each path to the oracle.
func FuzzKernelsVsReference(f *testing.F) {
	f.Add(uint8(32), uint8(64), uint8(128), uint64(1), uint8(0))
	f.Add(uint8(5), uint8(7), uint8(3), uint64(2), uint8(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(3), uint8(1))
	f.Add(uint8(2), uint8(9), uint8(6), uint64(4), uint8(2))
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed uint64, planting uint8) {
		a, b, bt, c := kernelOperands(NewRNG(seed), int(m%40), int(k%40), int(n%40), planting&1 != 0, planting&2 != 0)
		for _, p := range kernelPaths { // a path the CPU lacks repeats the widest narrower one
			was := setLevel(p)
			checkKernels(t, a, b, bt, c)
			setLevel(was)
			if t.Failed() {
				t.Fatalf("on the %s path", p)
			}
		}
	})
}
