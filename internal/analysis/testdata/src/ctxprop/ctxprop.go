// Package ctxprop is the analysistest fixture for the ctxprop analyzer.
package ctxprop

import (
	"context"
	"sync"
	"time"
)

// Search is the context-free entry point.
func Search(n int) int { return n }

// SearchContext is the context-aware variant of Search.
func SearchContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// FreshRoot discards the in-scope ctx for a fresh root — flagged.
func FreshRoot(ctx context.Context) int {
	return SearchContext(context.Background(), 1) // want `context.Background\(\) discards the in-scope ctx`
}

// TodoRoot does the same with TODO — flagged.
func TodoRoot(ctx context.Context) int {
	return SearchContext(context.TODO(), 1) // want `context.TODO\(\) discards the in-scope ctx`
}

// RootWithoutCtx builds a root context where none is in scope — OK.
func RootWithoutCtx() int {
	return SearchContext(context.Background(), 1)
}

// DropsVariant bypasses the Context variant of the callee — flagged.
func DropsVariant(ctx context.Context) int {
	return Search(1) // want `call to Search drops the in-scope ctx; use SearchContext`
}

// UsesVariant threads the context through — OK.
func UsesVariant(ctx context.Context) int {
	return SearchContext(ctx, 2)
}

// Solver exercises the method-variant lookup.
type Solver struct{ n int }

// Solve is the context-free method.
func (s *Solver) Solve() int { return s.n }

// SolveContext is its context-aware sibling.
func (s *Solver) SolveContext(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return s.n
}

// DropsMethodVariant bypasses SolveContext — flagged.
func DropsMethodVariant(ctx context.Context, s *Solver) int {
	return s.Solve() // want `call to Solve drops the in-scope ctx; use SolveContext`
}

// UsesMethodVariant — OK.
func UsesMethodVariant(ctx context.Context, s *Solver) int {
	return s.SolveContext(ctx)
}

// BlockingLoopUnchecked never consults ctx between receives — flagged.
func BlockingLoopUnchecked(ctx context.Context, ch chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ { // want `loop performs blocking operations but never checks ctx`
		total += <-ch
	}
	return total
}

// BlockingLoopChecked checks ctx.Err each iteration — OK.
func BlockingLoopChecked(ctx context.Context, ch chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return total
		}
		total += <-ch
	}
	return total
}

// BlockingLoopCondGuard guards in the loop condition — OK.
func BlockingLoopCondGuard(ctx context.Context, ch chan int) int {
	total := 0
	for ctx.Err() == nil {
		total += <-ch
	}
	return total
}

// BlockingLoopSelect pairs every op with a select — OK.
func BlockingLoopSelect(ctx context.Context, ch chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		select {
		case v := <-ch:
			total += v
		case <-ctx.Done():
			return total
		}
	}
	return total
}

// SleepLoop sleeps without a cancellation check — flagged.
func SleepLoop(ctx context.Context, n int) {
	for i := 0; i < n; i++ { // want `loop performs blocking operations but never checks ctx`
		time.Sleep(time.Millisecond)
	}
}

// WaitLoop joins a WaitGroup without a cancellation check — flagged.
func WaitLoop(ctx context.Context, groups []*sync.WaitGroup) {
	for _, wg := range groups { // want `loop performs blocking operations but never checks ctx`
		wg.Wait()
	}
}

// PureLoop has no blocking ops — OK.
func PureLoop(ctx context.Context, xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// PassThroughLoop hands ctx to the callee each iteration — OK.
func PassThroughLoop(ctx context.Context, ch chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += SearchContext(ctx, <-ch)
	}
	return total
}

// ClosureInheritsCtx: a literal without its own ctx parameter stays in the
// enclosing context's scope — flagged inside the closure.
func ClosureInheritsCtx(ctx context.Context, ch chan int) func() int {
	return func() int {
		total := 0
		for i := 0; i < 3; i++ { // want `loop performs blocking operations but never checks ctx`
			total += <-ch
		}
		return total
	}
}
