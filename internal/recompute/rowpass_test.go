package recompute

import (
	"math"
	"math/rand"
	"testing"

	"adapipe/internal/cpu"
)

// rowPaths are the two row-pass paths: the AVX2 blocks and the portable loop.
var rowPaths = []struct {
	name string
	simd bool
}{{"simd", true}, {"generic", false}}

// onEachPath runs test once per row-pass path this CPU has, switched through
// the hook.
func onEachPath(t *testing.T, test func(t *testing.T)) {
	for _, p := range rowPaths {
		if p.simd && !cpu.AVX2 {
			t.Logf("%s: not on this CPU", p.name)
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			defer setAVX2(setAVX2(p.simd))
			test(t)
		})
	}
}

// refRowPass is the row pass as the solver ran it before the choice bits were
// packed: the scalar descending loop over a []bool row.
func refRowPass(dp []float64, wt int, value float64) []bool {
	taken := make([]bool, len(dp)-wt)
	for c := len(dp) - 1; c >= wt; c-- {
		if v := dp[c-wt] + value; v > dp[c] {
			dp[c] = v
			taken[c-wt] = true
		}
	}
	return taken
}

// TestRowPassMatchesScalar holds each path of rowPass to the scalar loop, bit
// for bit in the table (Float64bits) and in the choice words: weights 1..9
// (below 4 a block's source and destination windows overlap), every length
// from 0 across three word boundaries and every tail residue, and tables and
// values drawn from a small set — so sums tie with the cells they are
// compared against — with ±0, NaN and ±Inf planted. Words the pass must not
// touch keep a sentinel, and the ones it writes start as garbage, so a word
// left unwritten or written twice out of order shows.
func TestRowPassMatchesScalar(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pool := []float64{0, negZero, 0.5, 1, 1.5, 2, 2.5, 3, nan, inf, -inf, -1}
	values := []float64{0, negZero, 0.5, 1, 1.25, nan, inf, -inf, -0.5}
	const sentinel = 0xdead_beef_dead_beef
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(28))
		for wt := 1; wt <= 9; wt++ {
			for n := 0; n <= 3*64+5; n++ {
				for _, value := range values {
					dp := make([]float64, wt+n)
					for i := range dp {
						if rng.Intn(4) == 0 {
							dp[i] = pool[rng.Intn(len(pool))]
						} else {
							dp[i] = pool[rng.Intn(8)] // finite, ties likely
						}
					}
					want := append([]float64(nil), dp...)
					wantBits := refRowPass(want, wt, value)

					nw := (n + 63) / 64
					words := make([]uint64, nw+1)
					for i := range words {
						words[i] = rng.Uint64()
					}
					words[nw] = sentinel
					dst := dp[wt:]
					rowPass(dst, dp[:len(dst)], value, words[:nw])

					for i := range dp {
						if math.Float64bits(dp[i]) != math.Float64bits(want[i]) {
							t.Fatalf("weight %d, n %d, value %v: dp[%d] = %v, scalar %v", wt, n, value, i, dp[i], want[i])
						}
					}
					for w := 0; w < nw; w++ {
						var ref uint64
						for b := 0; b < 64 && 64*w+b < n; b++ {
							if wantBits[64*w+b] {
								ref |= 1 << b
							}
						}
						if words[w] != ref {
							t.Fatalf("weight %d, n %d, value %v: word %d = %#x, scalar %#x", wt, n, value, w, words[w], ref)
						}
					}
					if words[nw] != sentinel {
						t.Fatalf("weight %d, n %d: wrote word %d past the row", wt, n, nw)
					}
				}
			}
		}
	})
}
