//go:build !amd64

package cpu

// AVX2 and FMA are amd64 features; elsewhere the portable loops are the only
// path.
const AVX2, FMA = false, false
