//go:build !amd64

package tensor

// Off amd64 there is no vector path: the portable loops in tensor.go compute
// every element.

func mulAccAVX2(dst *Mat, ad []float64, si, sk int, b *Mat) (rows, cols int) { return 0, 0 }

func matMulTAVX2(dst, a, b *Mat) (rows, cols int) { return 0, 0 }
