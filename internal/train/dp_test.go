package train

import (
	"math"
	"testing"

	"adapipe/internal/tensor"
)

func mkReplica(cfg Config, bounds []int, lr float64) func() (*Pipeline, error) {
	return func() (*Pipeline, error) { return newRunPipeline(RunConfig{Net: cfg, Bounds: bounds, LR: lr}) }
}

func TestDataParallelMatchesSingleReplica(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 13}
	const lr = 2e-3
	corpus := NewCorpus(cfg.Vocab, 1<<14, 9)

	dp1, err := NewDataParallel(1, mkReplica(cfg, []int{0, 3, 6}, lr))
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := NewDataParallel(2, mkReplica(cfg, []int{0, 3, 6}, lr))
	if err != nil {
		t.Fatal(err)
	}
	rngA := tensor.NewRNG(5)
	rngB := tensor.NewRNG(5)
	for step := 0; step < 5; step++ {
		batches1 := corpus.Batches(8, cfg.Seq, rngA)
		batches2 := corpus.Batches(8, cfg.Seq, rngB)
		l1, err := dp1.Step(batches1)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := dp2.Step(batches2)
		if err != nil {
			t.Fatal(err)
		}
		// Same global batch: identical mean loss; parameters agree up to
		// gradient-summation reassociation.
		if math.Abs(l1-l2) > 1e-12 {
			t.Fatalf("step %d: DP1 loss %.17g, DP2 loss %.17g", step, l1, l2)
		}
	}
	p1 := paramsOf(dp1.Replicas[0])
	p2 := paramsOf(dp2.Replicas[0])
	for i := range p1 {
		if d := tensor.MaxAbsDiff(p1[i].W, p2[i].W); d > 1e-9 {
			t.Fatalf("param %s diverged by %g between DP=1 and DP=2", p1[i].Name, d)
		}
	}
}

// inSync reports the maximum absolute parameter divergence across replicas
// (zero when DP is working correctly).
func inSync(dp *DataParallel) float64 {
	ref := dp.params[0]
	var worst float64
	for _, ps := range dp.params[1:] {
		for i := range ps {
			for j := range ps[i].W.Data {
				worst = max(worst, math.Abs(ps[i].W.Data[j]-ref[i].W.Data[j]))
			}
		}
	}
	return worst
}

func TestDataParallelReplicasStayInSync(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 21}
	dp, err := NewDataParallel(4, mkReplica(cfg, []int{0, 6}, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if got := inSync(dp); got != 0 {
		t.Fatalf("replicas differ at initialization: %g", got)
	}
	corpus := NewCorpus(cfg.Vocab, 1<<14, 2)
	rng := tensor.NewRNG(3)
	for step := 0; step < 4; step++ {
		if _, err := dp.Step(corpus.Batches(8, cfg.Seq, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous all-reduce keeps parameters bit-identical across
	// replicas (every replica applies the same summed gradient).
	if got := inSync(dp); got != 0 {
		t.Fatalf("replicas diverged after training: %g", got)
	}
}

func TestDataParallelValidation(t *testing.T) {
	cfg := Config{Layers: 1, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 1}
	if _, err := NewDataParallel(0, mkReplica(cfg, []int{0, 4}, 1e-3)); err == nil {
		t.Error("zero replicas accepted")
	}
	dp, err := NewDataParallel(2, mkReplica(cfg, []int{0, 4}, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(cfg.Vocab, 1<<12, 1)
	rng := tensor.NewRNG(1)
	if _, err := dp.Step(corpus.Batches(3, cfg.Seq, rng)); err == nil {
		t.Error("non-divisible batch count accepted")
	}
	// Mismatched replica construction is rejected.
	alt := cfg
	alt.Dim = 32
	calls := 0
	mixed := func() (*Pipeline, error) {
		calls++
		if calls > 1 {
			return mkReplica(alt, []int{0, 4}, 1e-3)()
		}
		return mkReplica(cfg, []int{0, 4}, 1e-3)()
	}
	if _, err := NewDataParallel(2, mixed); err == nil {
		t.Error("mismatched replicas accepted")
	}
}

// TestRunDataParallelRecordsTrace: RunConfig.Record reaches every replica, and
// the run returns replica 0's final-step trace with ops on every stage.
func TestRunDataParallelRecordsTrace(t *testing.T) {
	const stages = 3
	res, err := RunDataParallel(2, RunConfig{
		Net: Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 13}, Bounds: []int{0, 2, 4, 6},
		Steps: 2, MicroBatches: 8, LR: 2e-3, DataSeed: 9, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Record was set but RunDataParallel returned no trace")
	}
	perStage := make([]int, stages)
	for _, sp := range res.Trace.Spans {
		perStage[sp.Stage]++
	}
	// Replica 0 runs 4 of the 8 micro-batches: a forward and a backward each.
	for s, n := range perStage {
		if n != 2*4 {
			t.Errorf("stage %d has %d ops in the trace, want %d", s, n, 2*4)
		}
	}
}

// TestDataParallelStepAllocsBounded: a steady-state step at the bench shape
// allocates only what starting d replica goroutines takes — a goroutine and
// a closure each, and the WaitGroup they share: at most 2·d + 1 objects.
func TestDataParallelStepAllocsBounded(t *testing.T) {
	for _, d := range []int{1, 2} {
		dp, err := NewDataParallel(d, func() (*Pipeline, error) { return benchPipe(t, benchShape, benchBounds, "saveall", false), nil })
		if err != nil {
			t.Fatal(err)
		}
		batches := NewCorpus(benchShape.Vocab, 1<<16, benchShape.Seed+7).Batches(benchMicros, benchShape.Seq, tensor.NewRNG(benchShape.Seed))
		step := func() {
			if _, err := dp.Step(batches); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(10, step)
		t.Logf("d=%d: %.0f allocs per step", d, allocs)
		if allocs > float64(2*d+1) {
			t.Errorf("d=%d: %.0f allocs per step, want <= %d", d, allocs, 2*d+1)
		}
	}
}
