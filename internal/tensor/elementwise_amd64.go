package tensor

import (
	"math"

	"adapipe/internal/cpu"
)

// The vector path of the element-wise operations (elementwise_amd64.s). A
// kernel over slices computes the first len&^3 elements of its first source
// and returns that count (expSubAVX2 may stop sooner; see expSub); a kernel
// over four rows reads them ld values apart and computes one chain per row.

//go:noescape
func addAVX2(dst, a, b []float64) int

//go:noescape
func scaleAVX2(dst []float64, s float64) int

// adamAVX2's k holds Inv, β₁, 1−β₁, β₂, 1−β₂, C1, C2, LR and Eps.
//
//go:noescape
func adamAVX2(w, grad, m, v []float64, k *[9]float64) int

//go:noescape
func layerNormRowAVX2(y, xh, x, gain, b []float64, mean, rstd float64) int

// layerNormBackRowAVX2's c holds sumDy/n, sumDyXh, n and rstd.
//
//go:noescape
func layerNormBackRowAVX2(dx, dy, xh, gain, gg, gb []float64, c *[4]float64) int

//go:noescape
func geluAVX2(dst, x []float64) int

//go:noescape
func geluBackAVX2(dx, x, dy []float64) int

//go:noescape
func expSubAVX2(dst, src []float64, sub float64) int

// tanhAVX2 is the lane-exact tanh on its own, for the tests.
//
//go:noescape
func tanhAVX2(dst, x []float64) int

// rowSums4AVX2 sets out[r] to the sum of p[r·ld+j] over j in [0, n), from
// +0 in ascending j.
//
//go:noescape
func rowSums4AVX2(out *[4]float64, p *float64, ld, n int)

// rowSqDevs4AVX2 sets out[r] to the sum of (p[r·ld+j] − mean[r])², likewise.
//
//go:noescape
func rowSqDevs4AVX2(out *[4]float64, p *float64, ld, n int, mean *[4]float64)

// rowMaxes4AVX2 carries on out[r] as the running max of row r over p[r·ld+j]
// for j in [0, n), in ascending j, taking v only when v > max.
//
//go:noescape
func rowMaxes4AVX2(out *[4]float64, p *float64, ld, n int)

// layerNormSums4AVX2 sets out[r] to Σ dy·g and out[4+r] to Σ (dy·g)·xh
// over row r, from +0 in ascending j.
//
//go:noescape
func layerNormSums4AVX2(out *[8]float64, dy, xh *float64, ld, n int, gain *float64)

// expFMA is the branch of math.Exp the vector exp follows: the fused one
// exactly when math's own useFMA is set. The tests flip it to hold the other
// branch to its transcription.
var expFMA = cpu.FMA

// vconst is the kernels' constant table, each value four times over (one Y
// register): entry i is at ·vconst+32·i(SB). The exp constants are those of
// math's exp_amd64.s, the tanh ones math.tanh's.
var vconst = splat(
	math.Float64bits(1.4426950408889634073599246810018920),                  // 0 LOG2E
	math.Float64bits(0.69314718055966295651160180568695068359375),           // 1 LN2U
	math.Float64bits(0.28235290563031577122588448175013436025525412068e-12), // 2 LN2L
	math.Float64bits(0.0625),                           // 3
	math.Float64bits(2.4801587301587301587e-5),         // 4 the Taylor coefficients, 1/8! …
	math.Float64bits(1.9841269841269841270e-4),         // 5
	math.Float64bits(1.3888888888888888889e-3),         // 6
	math.Float64bits(8.3333333333333333333e-3),         // 7
	math.Float64bits(4.1666666666666666667e-2),         // 8
	math.Float64bits(1.6666666666666666667e-1),         // 9 … 1/3!
	math.Float64bits(0.5),                              // 10
	math.Float64bits(1.0),                              // 11
	math.Float64bits(2.0),                              // 12
	0x3ff,                                              // 13 the exponent bias, an integer
	math.Float64bits(expLo),                            // 14
	math.Float64bits(expHi),                            // 15
	math.Float64bits(math.Inf(-1)),                     // 16
	1<<63-1,                                            // 17 the magnitude bits
	1<<63,                                              // 18 the sign bit
	math.Float64bits(0.625),                            // 19 tanh's branch point
	math.Float64bits(0.5*8.8029691931113054295988e+01), // 20 tanh's saturation, ½·log(2¹²⁷)
	math.Float64bits(-9.64399179425052238628e-1),       // 21 tanhP
	math.Float64bits(-9.92877231001918586564e1),        // 22
	math.Float64bits(-1.61468768441708447952e3),        // 23
	math.Float64bits(1.12811678491632931402e2),         // 24 tanhQ
	math.Float64bits(2.23548839060100448583e3),         // 25
	math.Float64bits(4.84406305325125486048e3),         // 26
	math.Float64bits(geluK),                            // 27
	math.Float64bits(geluC),                            // 28
	math.Float64bits(3*geluC),                          // 29
)

// The vector exp computes the lanes in [expLo, expHi) itself: there
// math.Exp's scaling exponent lies in [−1021, 1023] and it takes none of its
// early exits. −Inf gives +0 by blend; any other lane is math.Exp's.
const expLo, expHi = -708, 709

func splat(bits ...uint64) (t [30][4]uint64) {
	for i, b := range bits {
		t[i] = [4]uint64{b, b, b, b}
	}
	return t
}
