//go:build !amd64

package cpu

// AVX2, FMA and AVX512 are amd64 features; elsewhere the portable loops are
// the only path.
const AVX2, FMA, AVX512 = false, false, false
