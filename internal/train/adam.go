package train

import (
	"math"

	"adapipe/internal/tensor"
)

// Adam is the FP32 Adam optimizer of the evaluation setup (§4.2), one
// instance per pipeline stage over that stage's parameters.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1 and Beta2 are the moment decay rates.
	Beta1, Beta2 float64
	// Eps is the denominator epsilon.
	Eps float64

	params []*Param
	m, v   []*tensor.Mat
	step   int
}

// NewAdam builds an optimizer over the given parameters.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.W.Rows, p.W.Cols))
		a.v = append(a.v, tensor.New(p.W.Rows, p.W.Cols))
	}
	return a
}

// Step applies one update from the accumulated gradients scaled by
// 1/gradScale (the micro-batch count for mean-of-micro-batches semantics),
// then zeroes the gradients.
func (a *Adam) Step(gradScale float64) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	inv := 1.0
	if gradScale != 0 {
		inv = 1 / gradScale
	}
	s := tensor.AdamStep{Inv: inv, Beta1: a.Beta1, Beta2: a.Beta2, C1: c1, C2: c2, LR: a.LR, Eps: a.Eps}
	for i, p := range a.params {
		tensor.AdamUpdate(p.W.Data, p.G.Data, a.m[i].Data, a.v[i].Data, &s)
	}
}
