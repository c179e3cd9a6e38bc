// Package cpu is the one probe of the CPU features the vector kernels need.
// internal/tensor's product kernels and internal/recompute's knapsack row
// pass each read AVX2 once, at start-up, and keep their own switch.
package cpu
