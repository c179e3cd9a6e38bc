package train

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"adapipe/internal/tensor"
)

// smallCfg is a 2-layer model (layer sequence length 6) small enough that an
// iteration takes a few milliseconds.
var smallCfg = Config{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 5}

func buildPipe(t *testing.T, cfg Config, bounds []int) *Pipeline {
	t.Helper()
	net, err := NewNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Split(net, bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewPipeline(stages, 2e-3)
}

// truncated returns a copy of batches whose micro-batch m carries only three
// targets, so CrossEntropy panics in the last stage's forward op of m. The
// originals are left whole.
func truncated(batches []Batch, m int) []Batch {
	bad := slices.Clone(batches)
	bad[m].Targets = bad[m].Targets[:3]
	return bad
}

// TestPanicMidIterationReturnsError: a stage panicking mid-iteration cancels
// its peers and surfaces as an error naming the stage, instead of leaving
// wg.Wait on counterparts that will never send. The test's own timeout is
// only a backstop: cancellation must unblock everything long before it.
func TestPanicMidIterationReturnsError(t *testing.T) {
	pipe := buildPipe(t, smallCfg, []int{0, 2, 4, 6})
	batches := NewCorpus(smallCfg.Vocab, 1<<14, 11).Batches(4, smallCfg.Seq, tensor.NewRNG(3))

	start := time.Now()
	done, quit := make(chan error), make(chan struct{})
	defer close(quit)
	go func() {
		_, err := pipe.Accumulate(truncated(batches, 1))
		select {
		case done <- err:
		case <-quit:
		}
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Accumulate still blocked 10s after a stage panicked")
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Accumulate succeeded despite a stage panic")
	}
	if want := "train: stage 2: train: 3 targets for 12 logit rows"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s; peers were not unblocked promptly", elapsed)
	}
}

// countdownCtx is a context whose Err turns context.Canceled on call k+1.
type countdownCtx struct {
	context.Context
	calls, k int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestRunContextStopsBetweenSteps: RunContext checks its context once before
// each step; once the context is cancelled the run returns context.Canceled
// with exactly the losses of the steps that completed — a cancelled or failed
// run never zero-pads its tail — and still reports its activation peaks.
func TestRunContextStopsBetweenSteps(t *testing.T) {
	const k = 2
	ctx := &countdownCtx{Context: context.Background(), k: k}
	res, err := RunContext(ctx, RunConfig{
		Net: smallCfg, Bounds: []int{0, 3, 6},
		Steps: 6, MicroBatches: 4, LR: 2e-3, DataSeed: 29,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.calls != k+1 {
		t.Fatalf("the context was checked %d times for %d completed steps, want %d", ctx.calls, k, k+1)
	}
	if len(res.Losses) != k {
		t.Fatalf("got %d losses after cancelling at step %d, want exactly the %d completed steps", len(res.Losses), k, k)
	}
	for i, l := range res.Losses {
		if l == 0 {
			t.Fatalf("completed step %d has zero loss; tail padding leaked", i)
		}
	}
	if res.PeakActBytes == nil {
		t.Fatal("a cancelled run reported no PeakActBytes")
	}
}
