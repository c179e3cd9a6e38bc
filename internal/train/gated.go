package train

import (
	"math"

	"adapipe/internal/tensor"
)

// The SwiGLU element-wise pair of a gated FFNBlock.

// gatedAct computes SiLU(gate) ⊙ up, with SiLU(g) = g·σ(g), element-wise.
func gatedAct(a *arena, up, gate *tensor.Mat) *tensor.Mat {
	y := a.get(up.Rows, up.Cols)
	for i, g := range gate.Data {
		silu := g / (1 + math.Exp(-g))
		y.Data[i] = silu * up.Data[i]
	}
	return y
}

// gatedActBackward returns (dup, dgate) given the forward inputs.
func gatedActBackward(a *arena, up, gate, dy *tensor.Mat) (*tensor.Mat, *tensor.Mat) {
	dup := a.get(up.Rows, up.Cols)
	dgate := a.get(up.Rows, up.Cols)
	for i := range up.Data {
		g := gate.Data[i]
		sig := 1 / (1 + math.Exp(-g))
		silu := g * sig
		dup.Data[i] = dy.Data[i] * silu
		// d(silu)/dg = σ(g)·(1 + g·(1−σ(g)))
		dgate.Data[i] = dy.Data[i] * up.Data[i] * sig * (1 + g*(1-sig))
	}
	return dup, dgate
}
