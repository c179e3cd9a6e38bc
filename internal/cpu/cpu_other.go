//go:build !amd64

package cpu

// AVX2 is an amd64 feature; elsewhere the portable loops are the only path.
const AVX2 = false
