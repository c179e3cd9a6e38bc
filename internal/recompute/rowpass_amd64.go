package recompute

// rowBlocksAVX2 runs rowPass's step on cells n-1 down to 0 of dst, n a
// positive multiple of 4, four cells per block (see rowpass_amd64.s). acc is
// the unfinished word rowCells hands over; every word from the one holding
// cell n-1 down to words[0] is stored.
//
//go:noescape
func rowBlocksAVX2(dst, src *float64, value float64, words *uint64, n int, acc uint64)

// rowBlocksAVX512 is rowBlocksAVX2 with eight cells per block, n a positive
// multiple of 8.
//
//go:noescape
func rowBlocksAVX512(dst, src *float64, value float64, words *uint64, n int, acc uint64)
