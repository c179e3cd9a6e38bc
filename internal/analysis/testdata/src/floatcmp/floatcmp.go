// Package floatcmp is the analysistest fixture for the floatcmp analyzer.
package floatcmp

import "math"

const eps = 1e-12

// almostEq is the epsilon-compare pattern the analyzer points at.
func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// SameCost compares modeled times exactly — flagged.
func SameCost(w1, w2 float64) bool {
	return w1 == w2 // want `exact == between floats w1 and w2`
}

// TieBreak uses != on floats in a comparator — flagged.
func TieBreak(a, b, e1, e2 float64) bool {
	if a != b { // want `exact != between floats a and b`
		return a < b
	}
	return e1 < e2
}

// NarrowCost compares float32 costs — flagged.
func NarrowCost(a, b float32) bool {
	return a == b // want `exact == between floats a and b`
}

// SameCostEps is the approved epsilon compare — not flagged.
func SameCostEps(w1, w2 float64) bool {
	return almostEq(w1, w2)
}

// ConstCheck compares two compile-time constants — exact by definition, not
// flagged.
func ConstCheck() bool {
	const half = 0.5
	return half == 0.5
}

// Ordered comparisons are fine — not flagged.
func Ordered(a, b float64) bool {
	return a < b || a >= b
}
