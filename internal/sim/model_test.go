package sim

import (
	"math"
	"testing"
	"testing/quick"

	"adapipe/internal/partition"
	"adapipe/internal/schedule"
)

// TestCostModelMatchesSimulationUniform cross-validates the §5.1 analytical
// cost model (the W/E/M recurrences Algorithm 1 optimizes) against the
// discrete-event simulator: with uniform stages and no communication the
// simulated 1F1B makespan equals the model's W₀ + E₀ + (n−p)·M₀ exactly.
func TestCostModelMatchesSimulationUniform(t *testing.T) {
	f := func(fb uint8, pn uint8, nn uint8) bool {
		p := 2 + int(pn%5)
		n := p + int(nn%12)
		fwd := 1 + float64(fb%9)
		bwd := 2 * fwd
		costs := make([]StageCost, p)
		for s := 0; s < p; s++ {
			costs[s] = StageCost{Fwd: fwd, Bwd: bwd}
		}
		costFn := func(s, i, j int) (float64, float64, bool) { return fwd, bwd, true }
		bounds := make([]int, p+1)
		for i := range bounds {
			bounds[i] = i
		}
		modelTotal, _, _, _, ok := partition.Evaluate(bounds, n, partition.CostRows(costFn))
		if !ok {
			return false
		}
		sched, err := schedule.OneFOneB(p, n)
		if err != nil {
			return false
		}
		res, err := Run(Input{Sched: sched, Stages: costs})
		if err != nil {
			return false
		}
		return math.Abs(res.IterTime-modelTotal) <= 1e-9*(1+modelTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCostModelBoundsSimulation checks the general (imbalanced) case: the
// §5.1 model assumes phases compose without cross-stage ordering stalls, so
// it can be slightly optimistic, but must stay a lower bound within a
// bounded slack of the dependency-exact simulation. The stalls the model
// ignores are each bounded by the slowest stage's fwd+bwd time and can
// accumulate at most once per pipeline boundary, so the simulation can
// exceed the model by at most (p-1)*max_s(fwd_s+bwd_s) — the dominant
// effect when n is close to p. Once the steady phase dominates (n >= 2p)
// the relative error is also modest (empirically <= ~1.32x over this
// input domain), asserted at 1.5x.
func TestCostModelBoundsSimulation(t *testing.T) {
	f := func(fs [6]uint8, bs [6]uint8, pn uint8, nn uint8) bool {
		p := 2 + int(pn%5)
		n := p + int(nn%12)
		fwd := make([]float64, p)
		bwd := make([]float64, p)
		costs := make([]StageCost, p)
		maxStage := 0.0
		for s := 0; s < p; s++ {
			fwd[s] = 1 + float64(fs[s%6]%9)
			bwd[s] = fwd[s] + float64(bs[s%6]%9)
			costs[s] = StageCost{Fwd: fwd[s], Bwd: bwd[s]}
			if fwd[s]+bwd[s] > maxStage {
				maxStage = fwd[s] + bwd[s]
			}
		}
		costFn := func(s, i, j int) (float64, float64, bool) { return fwd[s], bwd[s], true }
		bounds := make([]int, p+1)
		for i := range bounds {
			bounds[i] = i
		}
		modelTotal, _, _, _, ok := partition.Evaluate(bounds, n, partition.CostRows(costFn))
		if !ok {
			return false
		}
		sched, err := schedule.OneFOneB(p, n)
		if err != nil {
			return false
		}
		res, err := Run(Input{Sched: sched, Stages: costs})
		if err != nil {
			return false
		}
		if res.IterTime < modelTotal-1e-9 {
			return false
		}
		if res.IterTime > modelTotal+float64(p-1)*maxStage+1e-9 {
			return false
		}
		if n >= 2*p && res.IterTime > modelTotal*1.5 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCostModelIsLowerBoundWithComm verifies that adding point-to-point
// communication can only increase the simulated makespan above the
// comm-free model.
func TestCostModelIsLowerBoundWithComm(t *testing.T) {
	f := func(fs [4]uint8, comm uint8) bool {
		const p, n = 4, 9
		fwd := make([]float64, p)
		bwd := make([]float64, p)
		costs := make([]StageCost, p)
		c := float64(comm%5) / 2
		for s := 0; s < p; s++ {
			fwd[s] = 1 + float64(fs[s]%7)
			bwd[s] = 2 * fwd[s]
			costs[s] = StageCost{Fwd: fwd[s], Bwd: bwd[s], CommFwd: c, CommBwd: c}
		}
		costFn := func(s, i, j int) (float64, float64, bool) { return fwd[s], bwd[s], true }
		modelTotal, _, _, _, _ := partition.Evaluate([]int{0, 1, 2, 3, 4}, n, partition.CostRows(costFn))
		sched, _ := schedule.OneFOneB(p, n)
		res, err := Run(Input{Sched: sched, Stages: costs})
		if err != nil {
			return false
		}
		return res.IterTime >= modelTotal-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedReducesBubbles verifies the §2.1 claim about Megatron's
// interleaved 1F1B: with more virtual chunks per device (and no extra
// communication charged), the bubble ratio drops below plain 1F1B's.
func TestInterleavedReducesBubbles(t *testing.T) {
	const p, n, v = 2, 8, 2
	plain, err := schedule.OneFOneB(p, n)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := schedule.Interleaved(p, n, v)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(stages int) []StageCost {
		out := make([]StageCost, stages)
		for i := range out {
			out[i] = StageCost{Fwd: 1.0 / float64(stages/p), Bwd: 2.0 / float64(stages/p)}
		}
		return out
	}
	rp, err := Run(Input{Sched: plain, Stages: mk(p)})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Run(Input{Sched: inter, Stages: mk(p * v)})
	if err != nil {
		t.Fatal(err)
	}
	if ri.IterTime >= rp.IterTime {
		t.Errorf("interleaved %g not faster than plain 1F1B %g", ri.IterTime, rp.IterTime)
	}
}
