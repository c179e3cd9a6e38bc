//go:build !amd64

package tensor

// Off amd64 there is no vector path: the portable loops in tensor.go compute
// every element.

func mulAccAVX2(dst *Mat, ad []float64, si, sk int, b *Mat, tri triangle) (rows, cols int) {
	return 0, 0
}

func matMulTAVX2(dst, a, b *Mat, lower bool) (rows, cols int) { return 0, 0 }

func addAVX2(dst, a, b []float64) int                                            { return 0 }
func scaleAVX2(dst []float64, s float64) int                                     { return 0 }
func adamAVX2(w, grad, m, v []float64, k *[9]float64) int                        { return 0 }
func layerNormRowAVX2(y, xh, x, gain, b []float64, mean, rstd float64) int       { return 0 }
func layerNormBackRowAVX2(dx, dy, xh, gain, gg, gb []float64, c *[4]float64) int { return 0 }
func geluAVX2(dst, x []float64) int                                              { return 0 }
func geluBackAVX2(dx, x, dy []float64) int                                       { return 0 }
func expSubAVX2(dst, src []float64, sub float64) int                             { return 0 }

// The four-row kernels are only called on the vector path.

func rowSums4AVX2(out *[4]float64, p *float64, ld, n int)                           {}
func rowSqDevs4AVX2(out *[4]float64, p *float64, ld, n int, mean *[4]float64)       {}
func rowMaxes4AVX2(out *[4]float64, p *float64, ld, n int)                          {}
func layerNormSums4AVX2(out *[8]float64, dy, xh *float64, ld, n int, gain *float64) {}
