package recompute

import "adapipe/internal/cpu"

// The knapsack's inner loop: one pseudo-item's pass over the DP table. Three
// paths compute it — the AVX-512 and AVX2 blocks of rowpass_amd64.s and the
// portable loop below — and they agree bit for bit, in the table and in the
// choice bits.

// rowLevel names a row-pass path; a wider one is a larger value.
type rowLevel int

const (
	levelGeneric rowLevel = iota // rowCells alone
	levelAVX2                    // 4-cell blocks
	levelAVX512                  // 8-cell blocks
)

// rowLevelNames are the paths as the test hook and the benchmark rows name
// them.
var rowLevelNames = [...]string{levelGeneric: "generic", levelAVX2: "avx2", levelAVX512: "avx512"}

// cpuLevel is the widest path this CPU has.
func cpuLevel() rowLevel {
	switch {
	case cpu.AVX512:
		return levelAVX512
	case cpu.AVX2:
		return levelAVX2
	}
	return levelGeneric
}

// level selects the row pass. It is decided once, from the CPU; nothing but
// setRowLevel changes it.
var level = cpuLevel()

// setRowLevel is the test hook: it selects the named path ("avx512", "avx2"
// or "generic") — or, where the CPU lacks it, the widest narrower one it
// has — and returns the previous path's name, so the tests and the root
// package's BenchmarkKnapsack can hold every path to the same oracle.
func setRowLevel(name string) (was string) {
	want := levelGeneric
	for l, n := range rowLevelNames {
		if n == name {
			want = rowLevel(l)
		}
	}
	was = rowLevelNames[level]
	level = min(want, cpuLevel())
	return was
}

// rowPass runs, for every cell c of dst in descending order, the 0/1 step
//
//	if v := src[c] + value; v > dst[c] { dst[c] = v; take c }
//
// where the caller passes dst = dp[weight:hi] and src = dp[:len(dst)] of one
// table, weight ≥ 1. Descending, every step reads cells no earlier step has
// written: the writes so far sit at dp indices above weight+c, and both reads
// are at or below it. So any order that finishes higher cells first — 4- or
// 8-cell blocks whose loads all precede their stores included — reads what
// the scalar loop reads, and a NaN sum (v > dst[c] false) keeps dst[c] as it
// does.
//
// The choice of cell c is bit c%64 of words[c/64]. Each word covering
// [0, len(dst)) is assembled in a register and written once, its bits at and
// above len(dst) zero; no other word is touched, so words needs no clearing.
func rowPass(dst, src []float64, value float64, words []uint64) {
	n := len(dst)
	src, words = src[:n], words[:(n+63)/64] // the blocks write through pointers
	blocks := 0
	switch level {
	case levelAVX512:
		blocks = n &^ 7
	case levelAVX2:
		blocks = n &^ 3
	}
	acc := rowCells(dst, src, value, words, blocks)
	if blocks == 0 {
		return
	}
	if level == levelAVX512 {
		rowBlocksAVX512(&dst[0], &src[0], value, &words[0], blocks, acc)
	} else {
		rowBlocksAVX2(&dst[0], &src[0], value, &words[0], blocks, acc)
	}
}

// rowCells is the portable pass over cells len(dst)-1 down to lo, one word
// at a time. A word is stored once its lowest cell is done; acc carries the
// choices of a word lo leaves unfinished, and is returned for the caller to
// go on from below lo.
func rowCells(dst, src []float64, value float64, words []uint64, lo int) (acc uint64) {
	src = src[:len(dst)]
	for c := len(dst) - 1; c >= lo; {
		for base := max(c&^63, lo); c >= base; c-- {
			if v := src[c] + value; v > dst[c] {
				dst[c] = v
				acc |= 1 << (c & 63)
			}
		}
		if (c+1)&63 == 0 {
			words[(c+1)>>6] = acc
			acc = 0
		}
	}
	return acc
}
