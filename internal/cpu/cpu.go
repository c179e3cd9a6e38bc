// Package cpu is the one probe of the CPU features the vector kernels need.
// internal/tensor's kernels read AVX2 once, at start-up, and keep their own
// switch; tensor's vector exp also reads FMA, to follow the branch math.Exp
// takes. internal/recompute's knapsack row pass reads AVX512 and AVX2 the
// same way and picks the widest path the CPU has.
package cpu
