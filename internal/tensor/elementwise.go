package tensor

import (
	"math"

	"adapipe/internal/cpu"
)

// The element-wise operations of the executor. Each has two paths: an AVX2
// kernel (elementwise_amd64.s), which runs at both of the products' vector
// levels, and the portable loop below it, which is also the definition the
// kernel is held to bit for bit. The vector path, when on, returns how far it
// got — a prefix of the elements, a multiple of four, or a leading block of
// rows — and the portable loop does the rest, so every value is computed
// once, by one of two implementations of the same operation sequence.
//
// Two ways of putting four lanes to work keep that sequence:
//   - Independent elements: lane l of a vector is element j+l, and it sees the
//     scalar loop's operations on element j+l, in its order.
//   - Row reductions (a mean, a variance, a max, a softmax's sum): lane r is
//     row i+r, and it adds (or compares) that row's elements one at a time in
//     ascending j from the scalar start value, exactly the scalar chain. Four
//     rows are four independent chains in flight; no chain is split.
//
// exp and tanh run lane by lane through math.Exp's own instruction sequence
// and math.tanh's two branches (see elementwise_amd64.s).

// AddInto sets dst = a+b and returns dst, which may be a or b.
func AddInto(dst, a, b *Mat) *Mat {
	checkSame(a, b, "add")
	checkSame(dst, a, "add")
	add(dst.Data, a.Data, b.Data)
	return dst
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Mat) {
	checkSame(a, b, "addInPlace")
	add(a.Data, a.Data, b.Data)
}

// AddRowInPlace adds r to every row of a (a bias).
func AddRowInPlace(a *Mat, r []float64) {
	r = r[:a.Cols]
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		add(row, row, r)
	}
}

// AccumulateRows adds the rows of a to dst in ascending row order, so dst[j]
// is one chain down column j (a bias gradient).
func AccumulateRows(dst []float64, a *Mat) {
	dst = dst[:a.Cols]
	for i := 0; i < a.Rows; i++ {
		add(dst, dst, a.Data[i*a.Cols:(i+1)*a.Cols])
	}
}

// add sets dst[j] = a[j] + b[j]; a and b are at least as long as dst.
func add(dst, a, b []float64) {
	j := 0
	if level >= cpu.LevelAVX2 {
		j = addAVX2(dst, a, b)
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for ; j < len(dst); j++ {
		dst[j] = a[j] + b[j]
	}
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Mat, s float64) { scale(a.Data, s) }

func scale(d []float64, s float64) {
	j := 0
	if level >= cpu.LevelAVX2 {
		j = scaleAVX2(d, s)
	}
	for ; j < len(d); j++ {
		d[j] *= s
	}
}

// AdamStep holds the scalars of one Adam update: the gradient scale, the
// moment decay rates, the bias corrections 1−βᵗ, the learning rate and the
// denominator epsilon.
type AdamStep struct{ Inv, Beta1, Beta2, C1, C2, LR, Eps float64 }

// AdamUpdate applies one Adam update to the weights w from the gradients g,
// which it zeroes, and the moments m and v; the four have w's length.
func AdamUpdate(w, g, m, v []float64, s *AdamStep) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	j := 0
	if level >= cpu.LevelAVX2 {
		k := [9]float64{s.Inv, s.Beta1, 1 - s.Beta1, s.Beta2, 1 - s.Beta2, s.C1, s.C2, s.LR, s.Eps}
		j = adamAVX2(w, g, m, v, &k)
	}
	for ; j < len(w); j++ {
		gj := g[j] * s.Inv
		m[j] = s.Beta1*m[j] + (1-s.Beta1)*gj
		v[j] = s.Beta2*v[j] + (1-s.Beta2)*gj*gj
		mh := m[j] / s.C1
		vh := v[j] / s.C2
		w[j] -= s.LR * mh / (math.Sqrt(vh) + s.Eps)
		g[j] = 0
	}
}

// LayerNormInto normalizes each row of x to zero mean and unit variance:
// xhat = (x−mean)·rstd with rstd[i] = 1/√(var+eps), and y = xhat·g + b. y
// and xhat have x's shape, rstd one value per row, g and b one per column.
func LayerNormInto(y, xhat *Mat, rstd []float64, x *Mat, g, b []float64, eps float64) {
	checkSame(y, x, "layerNorm")
	checkSame(xhat, x, "layerNorm")
	cols, n := x.Cols, float64(x.Cols)
	rstd, g, b = rstd[:x.Rows], g[:cols], b[:cols]
	row := func(m *Mat, i int) []float64 { return m.Data[i*cols : (i+1)*cols] }
	for i := 0; i < x.Rows; {
		var mean, rs [4]float64
		k := 1
		if level >= cpu.LevelAVX2 && x.Rows-i >= 4 && cols > 0 {
			k = 4
			rowSums4AVX2(&mean, &x.Data[i*cols], cols, cols)
			for r := range mean {
				mean[r] /= n
			}
			rowSqDevs4AVX2(&rs, &x.Data[i*cols], cols, cols, &mean)
		} else {
			for _, v := range row(x, i) {
				mean[0] += v
			}
			mean[0] /= n
			for _, v := range row(x, i) {
				d := v - mean[0]
				rs[0] += d * d
			}
		}
		for r := 0; r < k; r++ {
			rs[r] = 1 / math.Sqrt(rs[r]/n+eps)
			rstd[i+r] = rs[r]
			xr, xh, yr := row(x, i+r), row(xhat, i+r), row(y, i+r)
			j := 0
			if level >= cpu.LevelAVX2 {
				j = layerNormRowAVX2(yr, xh, xr, g, b, mean[r], rs[r])
			}
			for ; j < cols; j++ {
				xh[j] = (xr[j] - mean[r]) * rs[r]
				yr[j] = xh[j]*g[j] + b[j]
			}
		}
		i += k
	}
}

// LayerNormBackwardInto sets dx to the gradient of LayerNormInto's input
// given dy, from the saved xhat and rstd and the gain g, and accumulates the
// gain and bias gradients into gg and gb, row by row in ascending order. It
// returns dx.
func LayerNormBackwardInto(dx, dy, xhat *Mat, rstd, g, gg, gb []float64) *Mat {
	checkSame(dx, dy, "layerNormBackward")
	checkSame(xhat, dy, "layerNormBackward")
	cols, n := dy.Cols, float64(dy.Cols)
	rstd, g, gg, gb = rstd[:dy.Rows], g[:cols], gg[:cols], gb[:cols]
	row := func(m *Mat, i int) []float64 { return m.Data[i*cols : (i+1)*cols] }
	for i := 0; i < dy.Rows; {
		// sums holds sumDy (lanes 0–3) and sumDyXh (lanes 4–7) of each row.
		var sums [8]float64
		k := 1
		if level >= cpu.LevelAVX2 && dy.Rows-i >= 4 && cols > 0 {
			k = 4
			layerNormSums4AVX2(&sums, &dy.Data[i*cols], &xhat.Data[i*cols], cols, cols, &g[0])
		} else {
			xh := row(xhat, i)
			for j, v := range row(dy, i) {
				gj := v * g[j]
				sums[0] += gj
				sums[4] += gj * xh[j]
			}
		}
		for r := 0; r < k; r++ {
			dyr, xh, dxr := row(dy, i+r), row(xhat, i+r), row(dx, i+r)
			c := [4]float64{sums[r] / n, sums[4+r], n, rstd[i+r]}
			j := 0
			if level >= cpu.LevelAVX2 {
				j = layerNormBackRowAVX2(dxr, dyr, xh, g, gg, gb, &c)
			}
			for ; j < cols; j++ {
				v := dyr[j]
				gg[j] += v * xh[j]
				gb[j] += v
				dxr[j] = (v*g[j] - c[0] - xh[j]*c[1]/c[2]) * c[3]
			}
		}
		i += k
	}
	return dx
}

// The tanh-approximated GELU: gelu(v) = ½v(1 + tanh(√(2/π)(v + 0.044715v³))).
const (
	geluK = 0.7978845608028654 // √(2/π)
	geluC = 0.044715
)

// GELUInto sets dst to the GELU of x, element-wise, and returns dst, which
// may be x.
func GELUInto(dst, x *Mat) *Mat {
	checkSame(dst, x, "gelu")
	j := 0
	if level >= cpu.LevelAVX2 {
		j = geluAVX2(dst.Data, x.Data)
	}
	for ; j < len(x.Data); j++ {
		v := x.Data[j]
		dst.Data[j] = 0.5 * v * (1 + math.Tanh(geluK*(v+geluC*v*v*v)))
	}
	return dst
}

// GELUBackwardInto sets dx to dy times the GELU's derivative at the forward
// input x and returns dx, which may be dy.
func GELUBackwardInto(dx, x, dy *Mat) *Mat {
	checkSame(dx, x, "geluBackward")
	checkSame(dy, x, "geluBackward")
	j := 0
	if level >= cpu.LevelAVX2 {
		j = geluBackAVX2(dx.Data, x.Data, dy.Data)
	}
	for ; j < len(x.Data); j++ {
		v := x.Data[j]
		t := math.Tanh(geluK * (v + geluC*v*v*v))
		dinner := geluK * (1 + 3*geluC*v*v)
		dx.Data[j] = dy.Data[j] * (0.5*(1+t) + 0.5*v*(1-t*t)*dinner)
	}
	return dx
}

// SoftmaxRowsInto sets dst to the row-wise softmax of a, with the usual
// max-subtraction for stability, and returns dst, which may be a; rows masked
// entirely to -Inf become zero rows. The max keeps the first of its ties and
// never takes a NaN (v > max is false for one).
func SoftmaxRowsInto(dst, a *Mat) *Mat {
	checkSame(dst, a, "softmax")
	softmaxRows(dst, a, false)
	return dst
}

// SoftmaxRows returns the row-wise softmax of a in a fresh matrix; see
// SoftmaxRowsInto.
func SoftmaxRows(a *Mat) *Mat { return SoftmaxRowsInto(New(a.Rows, a.Cols), a) }

// CausalSoftmaxInto is SoftmaxRowsInto with row i taken over columns [0, i]
// only: the rest of the row is not read and is written +0. Where the row's
// sum is not NaN that is the full softmax of the row masked to -Inf past i,
// bit for bit: exp(−Inf) = +0 adds nothing to a sum and 0·inv = +0.
func CausalSoftmaxInto(dst, a *Mat) *Mat {
	checkSame(dst, a, "causalSoftmax")
	softmaxRows(dst, a, true)
	return dst
}

func softmaxRows(dst, a *Mat, causal bool) {
	cols := a.Cols
	length := func(i int) int {
		if causal {
			return min(i+1, cols)
		}
		return cols
	}
	row := func(m *Mat, i int) []float64 { return m.Data[i*cols : (i+1)*cols] }
	for i := 0; i < a.Rows; {
		// The max of each row, over the prefix all k rows share by vector and
		// on from there one row at a time, then exp(v−max) into dst.
		rowMax := [4]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		k, shared := 1, 0
		if level >= cpu.LevelAVX2 && a.Rows-i >= 4 && cols > 0 {
			k, shared = 4, length(i)
			rowMaxes4AVX2(&rowMax, &a.Data[i*cols], cols, shared)
		}
		for r := 0; r < k; r++ {
			for _, v := range row(a, i+r)[shared:length(i+r)] {
				if v > rowMax[r] {
					rowMax[r] = v
				}
			}
		}
		for r := 0; r < k; r++ {
			n, orow := length(i+r), row(dst, i+r)
			if math.IsInf(rowMax[r], -1) {
				clear(orow)
				continue
			}
			expSub(orow[:n], row(a, i+r)[:n], rowMax[r])
			clear(orow[n:])
		}
		// The sums, each from +0 in ascending j: k rows at once over the
		// longest row, the others' tails holding +0.
		var sum [4]float64
		if k == 4 {
			rowSums4AVX2(&sum, &dst.Data[i*cols], cols, length(i+3))
		} else {
			for _, e := range row(dst, i)[:length(i)] {
				sum[0] += e
			}
		}
		for r := 0; r < k; r++ {
			if sum[r] != 0 {
				scale(row(dst, i+r)[:length(i+r)], 1/sum[r])
			}
		}
		i += k
	}
}

// expSub sets dst[j] = math.Exp(src[j] − sub); dst may be src. The vector
// kernel stops at a group of four holding a lane outside the range it
// computes itself, which math.Exp then does, and resumes after it.
func expSub(dst, src []float64, sub float64) {
	src = src[:len(dst)]
	j := 0
	for level >= cpu.LevelAVX2 && j+4 <= len(dst) {
		j += expSubAVX2(dst[j:], src[j:], sub)
		if j+4 <= len(dst) {
			for end := j + 4; j < end; j++ {
				dst[j] = math.Exp(src[j] - sub)
			}
		}
	}
	for ; j < len(dst); j++ {
		dst[j] = math.Exp(src[j] - sub)
	}
}
