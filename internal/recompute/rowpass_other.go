//go:build !amd64

package recompute

// Off amd64 there is no vector path: level stays cpu.LevelGeneric and rowCells
// does every cell.

func rowBlocksAVX2(dst, src *float64, value float64, words *uint64, n int, acc uint64) {
	panic("recompute: no AVX2 row pass off amd64")
}

func rowBlocksAVX512(dst, src *float64, value float64, words *uint64, n int, acc uint64) {
	panic("recompute: no AVX-512 row pass off amd64")
}
