// Package cpu is the one probe of the CPU features the vector kernels need.
// internal/tensor's kernels and internal/recompute's knapsack row pass each
// read AVX2 once, at start-up, and keep their own switch; tensor's vector exp
// also reads FMA, to follow the branch math.Exp takes.
package cpu
