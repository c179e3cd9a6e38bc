package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// gptPlannerCtx builds a GPT-3-scale planner: its search takes tens of
// milliseconds, long enough for a mid-flight cancellation to land inside it.
func gptPlannerCtx(t testing.TB) *Planner {
	t.Helper()
	opts := DefaultOptions()
	pl, err := NewPlanner(model.GPT3_175B(), hardware.ClusterA(),
		parallel.Strategy{TP: 8, PP: 8, DP: 1},
		parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPlanContextAlreadyCancelled(t *testing.T) {
	pl := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := pl.PlanContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got plan=%v err=%v", p, err)
	}
	if pl.Stats.CostEvaluations != 0 {
		t.Fatalf("pre-cancelled search still evaluated %d costs", pl.Stats.CostEvaluations)
	}
}

// TestPlanContextCancelMidSearch cancels a GPT-3-scale search shortly after
// launch and requires a prompt context.Canceled return — not an OOM
// misdiagnosis, not a completed plan, and no goroutine left behind.
func TestPlanContextCancelMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := gptPlannerCtx(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	p, err := pl.PlanContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		// The search may legitimately win the race and finish first;
		// that is a valid (and complete) outcome.
		if p == nil {
			t.Fatal("nil plan with nil error")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// "Promptly" means well under the full search wall: the unwind must not
	// re-run the whole DP.
	if err != nil && elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	cancel()
	// The search starts no goroutine of its own beyond the context's
	// AfterFunc, so any growth is a leak. Allow the runtime a few scheduler
	// beats to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines %d -> %d after cancelled search", before, now)
	}
}

// TestPlanContextCancelKeepsCacheClean proves a cancelled search cannot
// poison the planner: after an interrupted PlanContext, a fresh Plan on the
// same planner must produce bytes identical to a planner that never saw a
// cancellation (a cancelled search publishes only completed solves).
func TestPlanContextCancelKeepsCacheClean(t *testing.T) {
	clean := tinyPlanner(t, 15, 8, 16, 0.15, PartitionAdaptive)
	want, err := clean.Plan()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	dirty := tinyPlanner(t, 15, 8, 16, 0.15, PartitionAdaptive)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Microsecond)
		cancel()
	}()
	if _, err := dirty.PlanContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v", err)
	}
	got, err := dirty.Plan()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("plan after cancelled search diverged:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestPlanContextBackgroundMatchesPlan pins the wrapper equivalence: an
// uncancelled context must change nothing about the result.
func TestPlanContextBackgroundMatchesPlan(t *testing.T) {
	a := tinyPlanner(t, 6, 4, 8, 0.15, PartitionExact)
	b := tinyPlanner(t, 6, 4, 8, 0.15, PartitionExact)
	pa, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PlanContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(pa)
	jb, _ := json.Marshal(pb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("PlanContext(Background) != Plan:\n%s\n%s", ja, jb)
	}
}
