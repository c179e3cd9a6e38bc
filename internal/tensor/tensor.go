// Package tensor is a small, deterministic float64 matrix library backing the
// train package — the execution-engine substrate that stands in for
// MindSpore/PyTorch (§6). Everything is row-major 2-D; sequence models use
// [tokens, features] matrices.
//
// What is held is operation order, not just determinism. A deterministic
// kernel gives the same answer twice; the executor needs more: the
// recomputation test asserts bit-identical gradients with and without
// recomputation, the pipeline must match the single-stage run whatever the
// partition, and the losses are pinned to the bits an earlier commit produced
// (train's TestLossesUnchangedFromParent). Floating-point addition does not
// associate, so all of that holds only while every output element is the same
// products added in the same order. The kernels are therefore free to change
// how many sums are in flight and how operands are loaded — never the order
// within a sum — and the tests hold them to the plain loops bit for bit: the
// products to the triple loops (tensor_test.go), the element-wise operations
// to the loops they replaced (elementwise_test.go).
package tensor

import (
	"fmt"
	"math"

	"adapipe/internal/cpu"
)

// Mat is a dense row-major matrix.
type Mat struct {
	// Rows and Cols are the dimensions.
	Rows, Cols int
	// Data holds Rows*Cols values in row-major order.
	Data []float64
}

// New returns a zero matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether two matrices have identical dimensions.
func (m *Mat) SameShape(o *Mat) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Bytes returns the memory footprint of the matrix payload.
func (m *Mat) Bytes() int64 { return int64(len(m.Data)) * 8 }

func checkDst(dst *Mat, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

func checkSame(a, b *Mat, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// The three products below are register-blocked, and the blocking is chosen
// so that it cannot be observed: every output element is still the sum of the
// same products added in ascending k, one rounding per multiply and one per
// add (no math.FMA), so each kernel is bit-identical to the plain triple loop
// kept as the oracle in tensor_test.go. Blocking only puts several
// *independent* sums in flight at once and shares the loads between them.
// (One thing no loop pins, the oracle included: a NaN result is NaN either
// way, but which operand's payload it inherits is the hardware's choice.)

// level selects the vector path (kernel_amd64.go, elementwise_amd64.go) of
// the products and the element-wise operations: at avx512 the products run
// 4×16 tiles, at avx2 4×8 tiles, and the element-wise kernels are AVX2 at
// both vector levels. It is decided once, from the CPU; nothing but setLevel
// changes it.
var level = cpu.Widest()

// setLevel is the test hook: it selects the named path ("avx512", "avx2" or
// "generic") — or, where the CPU lacks it, the widest narrower one it has —
// and returns the previous path's name, so the tests and the root package's
// BenchmarkMatMul and BenchmarkElementwise can hold every path to the same
// oracle.
func setLevel(name string) (was string) {
	was = level.String()
	level = cpu.Pick(name)
	return was
}

// MatMulInto sets dst = a·b, every product formed, and returns dst, which
// must be a.Rows×b.Cols and must not alias a or b; its previous contents are
// ignored.
func MatMulInto(dst, a, b *Mat) *Mat { return matMul(dst, a, b, triFull) }

// MatMulLowerInto is MatMulInto for an a whose upper triangle (a[i][k] for
// k > i) is zero, a causal mask's probabilities: it leaves out the k that only
// those zeros reach. When b is finite the result is MatMulInto's bit for bit:
// a term left out would add ±0 to a sum that starts at +0 and never becomes
// −0, and adding ±0 to anything else is exact.
func MatMulLowerInto(dst, a, b *Mat) *Mat { return matMul(dst, a, b, triLower) }

func matMul(dst, a, b *Mat, tri triangle) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Cols, "matmul")
	mulAcc(dst, a.Data, a.Cols, 1, b, tri)
	return dst
}

// MatMul returns a·b in a fresh matrix; see MatMulInto.
func MatMul(a, b *Mat) *Mat { return MatMulInto(New(a.Rows, b.Cols), a, b) }

// TMatMulInto sets dst = aᵀ·b, every product formed, and returns dst, which
// must be a.Cols×b.Cols and must not alias a or b; its previous contents are
// ignored.
func TMatMulInto(dst, a, b *Mat) *Mat { return tMatMul(dst, a, b, triFull) }

// TMatMulLowerInto is TMatMulInto for an a whose upper triangle is zero, as
// MatMulLowerInto is MatMulInto: output row i leaves out the k < i, where
// a[k][i] is one of those zeros. When b is finite the result is TMatMulInto's
// bit for bit.
func TMatMulLowerInto(dst, a, b *Mat) *Mat { return tMatMul(dst, a, b, triUpper) }

func tMatMul(dst, a, b *Mat, tri triangle) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TmatMul inner mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Cols, b.Cols, "TmatMul")
	mulAcc(dst, a.Data, 1, a.Cols, b, tri)
	return dst
}

// TMatMul returns aᵀ·b in a fresh matrix; see TMatMulInto.
func TMatMul(a, b *Mat) *Mat { return TMatMulInto(New(a.Cols, b.Cols), a, b) }

// mulAcc is the one product behind MatMulInto and TMatMulInto:
// dst[i][j] = Σₖ A(i,k)·b[k][j] with A(i,k) = ad[i*si+k*sk], so the two
// products differ only in their strides. The vector path, when on, computes
// a block of rows [0, rows) × columns [0, cols); the portable loop does the
// columns right of it and the rows below it. tri says which A(i,k) may be
// nonzero.
func mulAcc(dst *Mat, ad []float64, si, sk int, b *Mat, tri triangle) {
	rows, cols := 0, 0
	if level > cpu.LevelGeneric {
		rows, cols = mulAccTiles(dst, ad, si, sk, b, tri)
	}
	mulAccGo(dst, ad, si, sk, b, 0, rows, cols, tri)
	mulAccGo(dst, ad, si, sk, b, rows, dst.Rows, 0, tri)
}

// A triangle is the part of A(i,k) that may be nonzero: all of it, or the
// part on and below (triLower) or on and above (triUpper) the diagonal. The
// k a block of rows reaches only through zeros are not visited.
type triangle int

const (
	triFull triangle = iota
	triLower
	triUpper
)

// span returns the k range [k0, k1) that output rows [i, i+h) read.
func (t triangle) span(i, h, inner int) (k0, k1 int) {
	switch t {
	case triLower:
		return 0, min(inner, i+h)
	case triUpper:
		return min(i, inner), inner
	}
	return 0, inner
}

// mulAccGo is mulAcc's portable loop over rows [i0, i1) × columns [j0, n). A
// block is two output rows by four k: eight products per four loads of b,
// each output element accumulated as ((((o + a₀b₀) + a₁b₁) + a₂b₂) + a₃b₃) —
// the order of the plain loop. The k tail and an odd last row go through
// axpy, one k at a time.
func mulAccGo(dst *Mat, ad []float64, si, sk int, b *Mat, i0, i1, j0 int, tri triangle) {
	n, inner := b.Cols, b.Rows
	if j0 == n {
		return
	}
	bd := b.Data
	row := func(i int) []float64 { return dst.Data[i*n+j0 : (i+1)*n] }
	brow := func(k int) []float64 { return bd[k*n+j0 : (k+1)*n] }
	i := i0
	for ; i+2 <= i1; i += 2 {
		o0, o1 := row(i), row(i+1)
		clear(o0)
		clear(o1)
		p0, p1 := i*si, (i+1)*si
		k, k1 := tri.span(i, 2, inner)
		for ; k+4 <= k1; k += 4 {
			a00, a01, a02, a03 := ad[p0+k*sk], ad[p0+(k+1)*sk], ad[p0+(k+2)*sk], ad[p0+(k+3)*sk]
			a10, a11, a12, a13 := ad[p1+k*sk], ad[p1+(k+1)*sk], ad[p1+(k+2)*sk], ad[p1+(k+3)*sk]
			b0, b1, b2, b3 := brow(k), brow(k+1), brow(k+2), brow(k+3)
			o1 := o1[:len(o0)]
			b0, b1, b2, b3 = b0[:len(o0)], b1[:len(o0)], b2[:len(o0)], b3[:len(o0)]
			for j := range o0 {
				x0, x1, x2, x3 := b0[j], b1[j], b2[j], b3[j]
				o0[j] = o0[j] + a00*x0 + a01*x1 + a02*x2 + a03*x3
				o1[j] = o1[j] + a10*x0 + a11*x1 + a12*x2 + a13*x3
			}
		}
		for ; k < k1; k++ {
			axpy(o0, ad[p0+k*sk], brow(k))
			axpy(o1, ad[p1+k*sk], brow(k))
		}
	}
	if i < i1 {
		o := row(i)
		clear(o)
		k0, k1 := tri.span(i, 1, inner)
		for k := k0; k < k1; k++ {
			axpy(o, ad[i*si+k*sk], brow(k))
		}
	}
}

// axpy adds av·b to o element-wise.
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// MatMulTInto sets dst = a·bᵀ and returns dst, which must be a.Rows×b.Rows
// and must not alias a or b; its previous contents are ignored. The vector
// path, when on, computes a block of rows [0, rows) × columns [0, cols); the
// portable loop does the rest.
func MatMulTInto(dst, a, b *Mat) *Mat { return matMulT(dst, a, b, false) }

// MatMulT returns a·bᵀ in a fresh matrix; see MatMulTInto.
func MatMulT(a, b *Mat) *Mat { return MatMulTInto(New(a.Rows, b.Rows), a, b) }

// MatMulTLowerInto is MatMulTInto for the lower triangle only (a causal
// mask): dst[i][j] for j ≤ i is the element MatMulTInto computes, bit for bit,
// and every element above the diagonal is set to fill. Only the tiles (4×16
// and 4×8 on the vector paths, 2×4 blocks on the portable one) that reach the
// triangle are computed.
func MatMulTLowerInto(dst, a, b *Mat, fill float64) *Mat {
	matMulT(dst, a, b, true)
	for i := 0; i < dst.Rows; i++ {
		if i+1 < dst.Cols {
			row := dst.Data[i*dst.Cols+i+1 : (i+1)*dst.Cols]
			for j := range row {
				row[j] = fill
			}
		}
	}
	return dst
}

func matMulT(dst, a, b *Mat, lower bool) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows, "matmulT")
	rows, cols := 0, 0
	if level > cpu.LevelGeneric {
		rows, cols = matMulTTiles(dst, a, b, lower)
	}
	matMulTGo(dst, a, b, 0, rows, cols, lower)
	matMulTGo(dst, a, b, rows, a.Rows, 0, lower)
	return dst
}

// matMulTGo is MatMulTInto's portable loop over rows [i0, i1) × columns
// [j0, n), or, if lower, columns [j0, i+2) of a block starting at row i. A
// block is two rows of a against four rows of b: eight independent dot
// products, each summed from +0 in ascending k like the plain loop's single
// chain.
func matMulTGo(dst, a, b *Mat, i0, i1, j0 int, lower bool) {
	inner, n := a.Cols, b.Rows
	end := func(i int) int {
		if lower {
			return min(n, i+2)
		}
		return n
	}
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a.Data[i*inner : (i+1)*inner]
		a1 := a.Data[(i+1)*inner : (i+2)*inner][:len(a0)]
		o0 := dst.Data[i*n : (i+1)*n]
		o1 := dst.Data[(i+1)*n : (i+2)*n]
		j := j0
		for ; j+4 <= end(i); j += 4 {
			b0 := b.Data[j*inner : (j+1)*inner][:len(a0)]
			b1 := b.Data[(j+1)*inner : (j+2)*inner][:len(a0)]
			b2 := b.Data[(j+2)*inner : (j+3)*inner][:len(a0)]
			b3 := b.Data[(j+3)*inner : (j+4)*inner][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < end(i); j++ {
			brow := b.Data[j*inner : (j+1)*inner]
			o0[j] = dot(a0, brow)
			o1[j] = dot(a1, brow)
		}
	}
	if i < i1 {
		arow := a.Data[i*inner : (i+1)*inner]
		for j := j0; j < end(i); j++ {
			dst.Data[i*n+j] = dot(arow, b.Data[j*inner:(j+1)*inner])
		}
	}
}

// dot sums a[k]·b[k] from +0 in ascending k.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for k, av := range a {
		s += av * b[k]
	}
	return s
}

// RNG is a small deterministic xorshift64* generator, so training runs are
// reproducible across machines without pulling in math/rand ordering
// concerns.
type RNG struct{ state uint64 }

// NewRNG seeds a generator (zero seeds are remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn needs n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// RandNorm fills a fresh rows×cols matrix with N(0, std²) samples.
func RandNorm(rng *RNG, rows, cols int, std float64) *Mat {
	out := New(rows, cols)
	for i := range out.Data {
		out.Data[i] = rng.Norm() * std
	}
	return out
}

// MaxAbsDiff returns max |a−b| element-wise. A position where exactly one
// side is NaN counts as +Inf, so a NaN never passes for a match; two NaNs, or
// equal values (equal infinities included), count as 0.
func MaxAbsDiff(a, b *Mat) float64 {
	checkSame(a, b, "maxAbsDiff")
	var m float64
	for i, x := range a.Data {
		y := b.Data[i]
		if x == y || math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		d := math.Abs(x - y)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		m = max(m, d)
	}
	return m
}
