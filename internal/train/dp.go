package train

import (
	"context"
	"fmt"
	"sync"
)

// DataParallel trains d replicated pipelines with synchronous gradient
// all-reduce, the DP dimension of the paper's 3D parallelism (§3). Every
// replica holds an identical copy of the model (same construction seed);
// each iteration splits the global micro-batches across replicas, sums the
// replica gradients, and applies identical optimizer updates, so parameters
// stay bit-identical across replicas.
type DataParallel struct {
	// Replicas are the per-replica pipelines.
	Replicas []*Pipeline
	// params holds each replica's parameters, gathered and checked once by
	// NewDataParallel; losses and errs are Step's per-replica results. Step
	// reuses all three.
	params [][]*Param
	losses []float64
	errs   []error
}

// NewDataParallel wraps d pipelines built by mk (which must construct
// identically-initialized stages, e.g. from the same Config seed).
func NewDataParallel(d int, mk func() (*Pipeline, error)) (*DataParallel, error) {
	if d < 1 {
		return nil, fmt.Errorf("train: need at least one replica, got %d", d)
	}
	dp := &DataParallel{losses: make([]float64, d), errs: make([]error, d)}
	for r := 0; r < d; r++ {
		pipe, err := mk()
		if err != nil {
			return nil, err
		}
		dp.Replicas = append(dp.Replicas, pipe)
		dp.params = append(dp.params, paramsOf(pipe))
	}
	// All replicas must agree on the parameter layout.
	ref := dp.params[0]
	for r, ps := range dp.params {
		if len(ps) != len(ref) {
			return nil, fmt.Errorf("train: replica %d has %d params, replica 0 has %d", r, len(ps), len(ref))
		}
		for i := range ps {
			if !ps[i].W.SameShape(ref[i].W) {
				return nil, fmt.Errorf("train: replica %d param %s shape mismatch", r, ps[i].Name)
			}
		}
	}
	return dp, nil
}

func paramsOf(p *Pipeline) []*Param {
	var out []*Param
	for _, s := range p.Stages {
		out = append(out, s.Params()...)
	}
	return out
}

// Step runs one globally-synchronous iteration: the batches are split evenly
// across replicas (len(batches) must divide by the replica count), gradients
// are all-reduced, and every replica applies the same optimizer update. The
// returned loss is the mean over all micro-batches.
func (dp *DataParallel) Step(batches []Batch) (float64, error) {
	d := len(dp.Replicas)
	if len(batches)%d != 0 {
		return 0, fmt.Errorf("train: %d micro-batches not divisible by %d replicas", len(batches), d)
	}
	per := len(batches) / d

	var wg sync.WaitGroup
	for r := 0; r < d; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dp.losses[r], dp.errs[r] = dp.Replicas[r].Accumulate(batches[r*per : (r+1)*per])
		}(r)
	}
	wg.Wait()
	for _, err := range dp.errs {
		if err != nil {
			return 0, err
		}
	}

	// All-reduce: sum gradients into replica 0's buffers, then broadcast.
	for i, p0 := range dp.params[0] {
		g0 := p0.G
		for r := 1; r < d; r++ {
			for j := range g0.Data {
				g0.Data[j] += dp.params[r][i].G.Data[j]
			}
		}
		for r := 1; r < d; r++ {
			copy(dp.params[r][i].G.Data, g0.Data)
		}
	}
	for r := 0; r < d; r++ {
		dp.Replicas[r].ApplyOptimizer(float64(len(batches)))
	}

	var mean float64
	for _, l := range dp.losses {
		mean += l
	}
	return mean / float64(d), nil
}

// RunDataParallel is Run with d synchronized replicas: each step's
// MicroBatches are split across replicas and gradients are all-reduced. The
// result carries replica 0's activation peaks and, with RunConfig.Record,
// its final-step trace.
func RunDataParallel(d int, rc RunConfig) (RunResult, error) {
	dp, err := NewDataParallel(d, func() (*Pipeline, error) { return newRunPipeline(rc) })
	if err != nil {
		return RunResult{}, err
	}
	return runSteps(context.Background(), rc, dp.Replicas[0], dp.Step)
}
