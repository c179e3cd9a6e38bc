package tensor

import (
	"math"
	"testing"

	"adapipe/internal/cpu"
)

// refArchExp transcribes math.archExp (math/exp_amd64.s) into Go, both of
// its branches: fma selects the one with VFNMADD231SD/VFMADD213SD (math.FMA
// rounds once, as they do), the other is MULSD/ADDSD. Go does not contract
// a*b+c into a fused operation on amd64, GOAMD64=v3 included, so each line
// rounds where the assembly does.
func refArchExp(x float64, fma bool) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	c := [...]float64{0.5, 1.0, 2.0, 1.6666666666666666667e-1, 4.1666666666666666667e-2,
		8.3333333333333333333e-3, 1.3888888888888888889e-3, 1.9841269841269841270e-4, 2.4801587301587301587e-5}
	switch bits := math.Float64bits(x); {
	case bits&^(1<<63) >= 0x7ff0000000000000:
		if bits == 0xfff0000000000000 {
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even, 0x80000000 when out of range.
	t := math.RoundToEven(log2e * x)
	e := int32(math.MinInt32)
	if t >= math.MinInt32 && t <= math.MaxInt32 {
		e = int32(t)
	}
	f := float64(e)
	if fma {
		x = math.FMA(-f, ln2u, x)
		x = math.FMA(-f, ln2l, x)
		x *= 0.0625
		p := c[8]
		for _, k := range []int{7, 6, 5, 4, 3, 0, 1} {
			p = math.FMA(p, x, c[k])
		}
		x *= p
		for i := 0; i < 3; i++ {
			x *= x + 2
		}
		x = math.FMA(x, x+2, 1)
	} else {
		x -= f * ln2u
		x -= f * ln2l
		x *= 0.0625
		p := c[8] * x
		for _, k := range []int{7, 6, 5, 4, 3, 0} {
			p = (p + c[k]) * x
		}
		p += c[1]
		x *= p
		for i := 0; i < 4; i++ {
			x *= 2 + x
		}
		x++
	}
	b := e + 0x3ff
	switch {
	case b <= 0:
		if b < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(b+0x3fe) << 52)
		b = 1
	case b >= 0x7ff:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(b)<<52)
}

// refTanh is math.tanh over refArchExp's branch fma.
func refTanh(x float64, fma bool) float64 {
	const maxlog = 8.8029691931113054295988e+01
	p := [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
	q := [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}
	z := math.Abs(x)
	switch {
	case z > 0.5*maxlog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := refArchExp(2*z, fma)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((p[0]*s+p[1])*s+p[2])/(((s+q[0])*s+q[1])*s+q[2])
	}
	return z
}

// laneInputs draws n inputs — uniform over [lo, hi), N(0, 10²) and arbitrary
// bit patterns (NaN payloads, subnormals and infinities among them) in equal
// shares — after the edge values given.
func laneInputs(rng *RNG, n int, lo, hi float64, edges ...float64) []float64 {
	xs := append([]float64(nil), edges...)
	for len(xs) < n {
		switch rng.Intn(3) {
		case 0:
			xs = append(xs, lo+(hi-lo)*rng.Float64())
		case 1:
			xs = append(xs, 10*rng.Norm())
		default:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
	}
	return xs
}

// around returns x and its neighbours k ulps away on both sides.
func around(x float64, k int) []float64 {
	out := []float64{x}
	up, down := x, x
	for i := 0; i < k; i++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		out = append(out, up, down)
	}
	return out
}

// sameFloat compares bit patterns, NaN as one value (see sameBits).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestExpLanesMatchMathExp holds the vector exp to math.Exp bit for bit on
// 10⁶ seeded inputs and the edges: ±0, ±Inf, NaN, the overflow threshold
// ±1 ulp, the range limits, −708…−746 through archExp's denormal exit and
// whole groups of −Inf. On each path, softmax's exp (kernel plus scalar
// fallback) must equal math.Exp; on the vector path, each of archExp's two
// branches — the one math takes on this CPU and the other — must equal its
// transcription on every lane the kernel computes itself, and the
// transcription of math's branch must equal math.Exp everywhere.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	edges = append(edges, around(7.09782712893384e+02, 2)...)
	edges = append(edges, around(expLo, 2)...)
	edges = append(edges, around(expHi, 2)...)
	for x := -708.0; x >= -746; x -= 0.125 {
		edges = append(edges, x)
	}
	edges = append(edges, 5e-324, -5e-324, 1e-300, -1e300, 1e300)
	xs := laneInputs(NewRNG(17), 1_000_000, -750, 750, edges...)
	for _, x := range xs {
		if got, want := refArchExp(x, cpu.FMA), math.Exp(x); !sameFloat(got, want) {
			t.Fatalf("transcription: exp(%v) = %v, math.Exp gives %v", x, got, want)
		}
	}
	onEachPath(t, func(t *testing.T) {
		got := make([]float64, len(xs))
		expSub(got, xs, 0)
		for i, x := range xs {
			if !sameFloat(got[i], math.Exp(x)) {
				t.Fatalf("exp(%v) = %v (bits %#x), math.Exp gives %v (bits %#x)", x, got[i], math.Float64bits(got[i]), math.Exp(x), math.Float64bits(math.Exp(x)))
			}
		}
	})
	defer func(was bool) { expFMA = was }(expFMA)
	for _, fma := range []bool{true, false} {
		expFMA = fma
		got := make([]float64, len(xs))
		for j := 0; j+4 <= len(xs); {
			j += expSubAVX2(got[j:], xs[j:], 0)
			for end := min(j+4, len(xs)); j < end; j++ {
				got[j] = refArchExp(xs[j], fma) // the group the kernel declined
			}
		}
		for i, x := range xs {
			if want := refArchExp(x, fma); !sameFloat(got[i], want) {
				t.Fatalf("fma=%v: exp(%v) = %v, the transcription gives %v", fma, x, got[i], want)
			}
		}
	}
}

// TestTanhLanesMatchMathTanh holds the vector tanh to math.Tanh bit for bit
// on 10⁶ seeded inputs and the edges (±0, NaN, ±Inf, the branch point 0.625
// and the saturation ½·log(2¹²⁷) ±1 ulp, subnormals), through both of
// math.Exp's branches: math's own against math.Tanh, the other against the
// transcription.
func TestTanhLanesMatchMathTanh(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
	for _, e := range []float64{0.625, -0.625, 0.5 * 8.8029691931113054295988e+01, -0.5 * 8.8029691931113054295988e+01} {
		edges = append(edges, around(e, 2)...)
	}
	xs := laneInputs(NewRNG(19), 1_000_000, -50, 50, edges...)
	for len(xs)%4 != 0 {
		xs = append(xs, 0.5)
	}
	defer func(was bool) { expFMA = was }(expFMA)
	for _, fma := range []bool{true, false} {
		expFMA = fma
		got := make([]float64, len(xs))
		if n := tanhAVX2(got, xs); n != len(xs) {
			t.Fatalf("tanhAVX2 did %d of %d", n, len(xs))
		}
		for i, x := range xs {
			want := refTanh(x, fma)
			if fma == cpu.FMA {
				want = math.Tanh(x)
			}
			if !sameFloat(got[i], want) {
				t.Fatalf("fma=%v: tanh(%v) = %v (bits %#x), want %v (bits %#x)", fma, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}
