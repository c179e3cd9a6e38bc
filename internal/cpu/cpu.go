// Package cpu is the one probe of the CPU features the vector kernels need.
// internal/tensor's kernels and internal/recompute's knapsack row pass read
// AVX512 and AVX2 once, at start-up, and each pick the widest path the CPU
// has (Widest); tensor's vector exp also reads FMA, to follow the branch
// math.Exp takes.
package cpu

// Level names a vector path of the kernels; a wider one is a larger value.
// Each kernel package keeps its own level variable, set from Widest at
// start-up and by its test hook from Pick.
type Level int

const (
	LevelGeneric Level = iota // the portable loops alone
	LevelAVX2                 // 256-bit vectors
	LevelAVX512               // 512-bit vectors
)

// levelNames are the paths as the test hooks and the benchmark rows name
// them.
var levelNames = [...]string{LevelGeneric: "generic", LevelAVX2: "avx2", LevelAVX512: "avx512"}

// String returns the level's name: "generic", "avx2" or "avx512".
func (l Level) String() string { return levelNames[l] }

// Widest is the widest path this CPU has.
func Widest() Level {
	switch {
	case AVX512:
		return LevelAVX512
	case AVX2:
		return LevelAVX2
	}
	return LevelGeneric
}

// Pick returns the path name names ("avx512", "avx2" or "generic"; anything
// else is generic) or, where the CPU lacks it, the widest narrower one it has.
func Pick(name string) Level {
	want := LevelGeneric
	for l, n := range levelNames {
		if n == name {
			want = Level(l)
		}
	}
	return min(want, Widest())
}
