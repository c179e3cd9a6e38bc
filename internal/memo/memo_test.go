package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// keys lists the stored keys, most recently used first.
func keys(c *Cache[string, int]) []string {
	var out []string
	for _, p := range c.Snapshot() {
		out = append(out, p.Key)
	}
	return out
}

// waiterCtx is a context that reports when its Done channel is first asked
// for. GetOrCompute asks only once it holds an in-flight call to wait on, so
// after asked is closed the caller is committed to that call's outcome — the
// event the concurrent cases wait on instead of sleeping.
type waiterCtx struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func newWaiterCtx() *waiterCtx {
	return &waiterCtx{Context: context.Background(), asked: make(chan struct{})}
}

func (w *waiterCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.asked) })
	return w.Context.Done()
}

// stored is a GetOrCompute body that stores its value.
func stored(v int) func() (int, bool) { return func() (int, bool) { return v, true } }

// TestCache is the contract of the one cache under every user: the response
// cache and coalescing of internal/serve, its warm-planner store, and
// internal/coststore.
func TestCache(t *testing.T) {
	bg := context.Background()
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"lru_eviction_order", func(t *testing.T) {
			c := New[string, int](3)
			for i := 0; i < 3; i++ {
				c.Put(fmt.Sprintf("k%d", i), i)
			}
			// Touch k0 so k1 becomes the least recently used.
			if _, ok := c.Get("k0"); !ok {
				t.Fatal("k0 missing")
			}
			c.Put("k3", 3)
			if _, ok := c.Get("k1"); ok {
				t.Fatal("k1 should have been evicted (least recently used)")
			}
			for _, k := range []string{"k0", "k2", "k3"} {
				if _, ok := c.Get(k); !ok {
					t.Fatalf("%s evicted out of order", k)
				}
			}
			if c.Evictions() != 1 {
				t.Fatalf("evictions = %d, want 1", c.Evictions())
			}
			// Replacing an existing key must not evict.
			c.Put("k2", 42)
			if got, _ := c.Get("k2"); got != 42 {
				t.Fatal("Put did not replace the value")
			}
			if c.Len() != 3 || c.Evictions() != 1 {
				t.Fatalf("len=%d evictions=%d after replace, want 3 and 1", c.Len(), c.Evictions())
			}
			if want := []string{"k2", "k3", "k0"}; !reflect.DeepEqual(keys(c), want) {
				t.Fatalf("keys = %v, want %v (most recently used first)", keys(c), want)
			}
		}},
		{"sequential_eviction_is_fifo", func(t *testing.T) {
			c := New[string, int](2)
			for i := 0; i < 5; i++ {
				c.Put(fmt.Sprintf("k%d", i), i)
			}
			if want := []string{"k4", "k3"}; !reflect.DeepEqual(keys(c), want) {
				t.Fatalf("keys = %v, want %v", keys(c), want)
			}
			if c.Evictions() != 3 {
				t.Fatalf("evictions = %d, want 3", c.Evictions())
			}
		}},
		{"computed_values_obey_the_bound", func(t *testing.T) {
			c := New[string, int](1)
			c.GetOrCompute(bg, "a", stored(1))
			c.GetOrCompute(bg, "b", stored(2))
			if c.Len() != 1 || c.Evictions() != 1 {
				t.Fatalf("len=%d evictions=%d after overflow, want 1 and 1", c.Len(), c.Evictions())
			}
			// a was evicted: looking it up computes again.
			if _, disp, _ := c.GetOrCompute(bg, "a", stored(1)); disp != Computed {
				t.Fatalf("evicted key came back as %v, want computed", disp)
			}
		}},
		{"disabled_stores_nothing_but_still_computes", func(t *testing.T) {
			c := New[string, int](-1)
			c.Put("k", 1)
			if _, ok := c.Get("k"); ok {
				t.Fatal("disabled cache stored a Put")
			}
			if v, disp, err := c.GetOrCompute(bg, "k", stored(7)); v != 7 || disp != Computed || err != nil {
				t.Fatalf("GetOrCompute = %d, %v, %v", v, disp, err)
			}
			if c.Len() != 0 {
				t.Fatal("disabled cache reports entries")
			}
		}},
		{"computes_once_then_hits", func(t *testing.T) {
			c := New[string, int](8)
			calls := 0
			fn := func() (int, bool) { calls++; return 5, true }
			if v, disp, _ := c.GetOrCompute(bg, "k", fn); v != 5 || disp != Computed {
				t.Fatalf("first lookup = %d, %v; want 5, computed", v, disp)
			}
			if v, disp, _ := c.GetOrCompute(bg, "k", fn); v != 5 || disp != Hit || calls != 1 {
				t.Fatalf("second lookup = %d, %v after %d computes; want 5, hit, 1", v, disp, calls)
			}
		}},
		{"concurrent_callers_share_one_compute", func(t *testing.T) {
			c := New[string, int](8)
			var computes atomic.Int64
			const callers = 16
			gate := make(chan struct{})
			disps := make([]Disposition, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-gate
					v, d, err := c.GetOrCompute(bg, "k", func() (int, bool) { computes.Add(1); return 9, true })
					if v != 9 || err != nil {
						t.Errorf("caller %d got %d, %v", i, v, err)
					}
					disps[i] = d
				}(i)
			}
			close(gate)
			wg.Wait()
			if got := computes.Load(); got != 1 {
				t.Fatalf("compute ran %d times under contention, want exactly 1", got)
			}
			leaders := 0
			for _, d := range disps {
				if d == Computed {
					leaders++
				}
			}
			if leaders != 1 {
				t.Fatalf("%d leaders, want 1 (%v)", leaders, disps)
			}
		}},
		{"churn_hands_every_caller_its_own_keys_value", func(t *testing.T) {
			// Few slots, more keys and callers: values are evicted, calls
			// finish with and without waiters and are recycled, and every
			// lookup must still return the value of the key it asked for.
			c := New[int, int](4)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						k := (i*7 + g) % 16
						v, _, err := c.GetOrCompute(bg, k, func() (int, bool) { return 100 + k, k%3 != 0 })
						if v != 100+k || err != nil {
							t.Errorf("key %d got %d, %v", k, v, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if c.Len() > 4 {
				t.Fatalf("%d values stored under a bound of 4", c.Len())
			}
		}},
		{"unstored_value_is_shared_but_not_cached", func(t *testing.T) {
			c := New[string, int](8)
			entered, release := make(chan struct{}), make(chan struct{})
			go func() {
				c.GetOrCompute(bg, "k", func() (int, bool) { close(entered); <-release; return 503, false })
			}()
			<-entered
			wctx, waiter := newWaiterCtx(), make(chan Disposition)
			go func() {
				v, d, _ := c.GetOrCompute(wctx, "k", stored(-1))
				if v != 503 {
					t.Errorf("waiter got %d, want the leader's 503", v)
				}
				waiter <- d
			}()
			<-wctx.asked
			close(release)
			if d := <-waiter; d != Shared {
				t.Fatalf("waiter disposition %v, want shared", d)
			}
			if _, ok := c.Get("k"); ok {
				t.Fatal("a value fn declined to store was cached")
			}
		}},
		{"leader_panic_wakes_waiters_and_one_of_them_leads", func(t *testing.T) {
			c := New[string, int](8)
			entered, release := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan any)
			go func() {
				defer func() { leaderDone <- recover() }()
				c.GetOrCompute(bg, "k", func() (int, bool) { close(entered); <-release; panic("solver died") })
			}()
			<-entered
			const waiters = 4
			var computes atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < waiters; i++ {
				wctx := newWaiterCtx()
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, _, err := c.GetOrCompute(wctx, "k", func() (int, bool) { computes.Add(1); return 3, true })
					if v != 3 || err != nil {
						t.Errorf("waiter got %d, %v after the leader panicked", v, err)
					}
				}()
				<-wctx.asked
			}
			close(release)
			if r := <-leaderDone; r != "solver died" {
				t.Fatalf("leader's panic was swallowed: recovered %v", r)
			}
			wg.Wait()
			if got := computes.Load(); got != 1 {
				t.Fatalf("%d waiters led a retry, want exactly 1", got)
			}
			if v, ok := c.Get("k"); !ok || v != 3 {
				t.Fatalf("after the retry the cache holds %d, %v; want 3", v, ok)
			}
		}},
		{"waiter_leaves_on_its_own_context_without_disturbing_the_leader", func(t *testing.T) {
			c := New[string, int](8)
			entered, release := make(chan struct{}), make(chan struct{})
			leader := make(chan int)
			go func() {
				v, _, _ := c.GetOrCompute(bg, "k", func() (int, bool) { close(entered); <-release; return 11, true })
				leader <- v
			}()
			<-entered
			ctx, cancel := context.WithCancel(bg)
			cancel()
			if _, d, err := c.GetOrCompute(ctx, "k", stored(-1)); d != Shared || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter = %v, %v; want shared, context.Canceled", d, err)
			}
			close(release)
			if v := <-leader; v != 11 {
				t.Fatalf("leader returned %d, want 11", v)
			}
			if v, ok := c.Get("k"); !ok || v != 11 {
				t.Fatalf("leader's value not stored: %d, %v", v, ok)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// TestSteadyStateAllocatesNothing pins the cache's allocation discipline.
// Once the LRU is at its bound and a finished call waits on the free list,
// an uncontended miss that stores (and so evicts), a hit, and a Put that
// evicts each allocate nothing: the new key takes the tail's slot, the
// recycled call needs no done channel because no one waits on it.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const max = 64
	bg := context.Background()
	keys := make([]string, 16*max)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	c := New[string, int](max)
	next := 0
	missStore := func() {
		k := next % len(keys)
		next++
		if _, disp, _ := c.GetOrCompute(bg, keys[k], func() (int, bool) { return k, true }); disp != Computed {
			t.Fatalf("key %d came back %v, want computed", k, disp)
		}
	}
	for i := 0; i < len(keys); i++ {
		missStore()
	}
	evictions := c.Evictions()
	if a := testing.AllocsPerRun(200, missStore); a != 0 {
		t.Errorf("a miss that stores allocates %.0f/op, want 0", a)
	}
	hit := func() {
		if _, disp, _ := c.GetOrCompute(bg, keys[(next-1)%len(keys)], stored(-1)); disp != Hit {
			t.Fatalf("recent key came back %v, want hit", disp)
		}
	}
	if a := testing.AllocsPerRun(200, hit); a != 0 {
		t.Errorf("a hit allocates %.0f/op, want 0", a)
	}
	put := func() {
		c.Put(keys[next%len(keys)], next)
		next++
	}
	if a := testing.AllocsPerRun(200, put); a != 0 {
		t.Errorf("a Put that evicts allocates %.0f/op, want 0", a)
	}
	// AllocsPerRun runs each body once more to warm up.
	if got, want := c.Evictions()-evictions, int64(2*201); got != want || c.Len() != max {
		t.Fatalf("%d evictions with %d stored, want %d with %d: the pinned misses and Puts did not evict", got, c.Len(), want, max)
	}
}
