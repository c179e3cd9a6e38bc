package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPlanContextAlreadyCancelled: a pre-cancelled ctx surfaces
// context.Canceled from each of the planner's context-taking searches, and a
// cold search returns before it evaluates a single cost.
func TestPlanContextAlreadyCancelled(t *testing.T) {
	cases := []struct {
		name string
		// search runs the entry point under ctx on a fresh planner; cold
		// entry points must evaluate no cost before noticing ctx.
		search func(t *testing.T, ctx context.Context, pl *Planner) error
		cold   bool
	}{
		{"PlanContext", func(t *testing.T, ctx context.Context, pl *Planner) error {
			_, err := pl.PlanContext(ctx)
			return err
		}, true},
		{"ReplanWithScaleContext", func(t *testing.T, ctx context.Context, pl *Planner) error {
			old, err := pl.Plan()
			if err != nil {
				t.Fatal(err)
			}
			_, err = pl.ReplanWithScaleContext(ctx, old, []float64{1, 1.5, 1, 1})
			return err
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := roomy.planner(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := tc.search(t, ctx, pl); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if n := pl.StatsSnapshot().CostEvaluations; tc.cold && n != 0 {
				t.Fatalf("pre-cancelled search still evaluated %d costs", n)
			}
		})
	}
}

// TestPlanContextCancelMidSearch cancels a GPT-3-scale search shortly after
// launch and requires a prompt context.Canceled return — not an OOM
// misdiagnosis, not a completed plan, and no goroutine left behind.
func TestPlanContextCancelMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := gpt3.planner(t)
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
