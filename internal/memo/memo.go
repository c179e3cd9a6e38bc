// Package memo is the repo's one compute-once bounded cache: an LRU of
// completed values plus the in-flight computations for missing keys, behind
// a single mutex. It is §5.3's "solve each isomorphic class once, share the
// result" lifted out of one search: the serving layer's response cache and
// request coalescing, its warm-planner store, its trace ring and the shared
// cost store are each one Cache.
//
// The list and the in-flight map share a lock because the two questions "is
// it stored?" and "is someone computing it?" must be answered together: a
// value moves from in flight to stored before its call is deregistered, so a
// lookup never finds a key in neither place while its first computation is
// still the only one needed.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Disposition classifies how GetOrCompute satisfied a lookup.
type Disposition int

const (
	// Computed means the caller ran the computation itself (a cold miss).
	Computed Disposition = iota
	// Hit means the value was already stored.
	Hit
	// Shared means the caller waited on another caller's in-flight
	// computation for the same key.
	Shared
)

// String returns the disposition name.
func (d Disposition) String() string {
	switch d {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Pair is one stored key and its value.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// call is one in-flight computation. Waiters block on done; ok stays false
// when the leader's computation panicked, which tells them to go around
// again (and possibly lead).
type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// Cache is a concurrency-safe LRU bounded to max values, with compute-once
// semantics for missing keys. Get, Put and GetOrCompute all count as use. The
// zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	// ll orders the stored *Pair values, front = most recently used.
	// guarded by mu
	ll *list.List
	// items indexes ll's elements by key.
	// guarded by mu
	items map[K]*list.Element
	// calls holds the in-flight computation per missing key.
	// guarded by mu
	calls map[K]*call[V]
	// evictions counts the values the bound pushed out.
	// guarded by mu
	evictions int64
}

// New builds a cache bounded to max values. max <= 0 stores nothing — every
// Get misses and every Put is dropped — while concurrent GetOrCompute calls
// for one key still share a single computation.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element),
		calls: make(map[K]*call[V]),
	}
}

// Get returns the stored value for key and promotes it to most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Pair[K, V]).Val, true
}

// Put stores (or replaces) the value for key as most recently used and evicts
// from the tail until the bound holds again.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*Pair[K, V]).Val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&Pair[K, V]{Key: key, Val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*Pair[K, V]).Key)
		c.evictions++
	}
}

// GetOrCompute returns the value for key, running fn when it is neither
// stored nor being computed. Concurrent callers for one missing key run fn
// exactly once: the first leads (Computed), the rest wait and receive the
// leader's value (Shared). fn's second result says whether the value is
// stored for later lookups; a value it declines to store is still handed to
// the waiters of that flight.
//
// A waiter whose ctx ends first returns ctx.Err(); the leader is never
// interrupted by a waiter's context. If fn panics, the panic propagates to
// the leader's caller after the call is deregistered and nothing is stored;
// the waiters wake and go around again, so one of them leads a fresh attempt.
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, key K, fn func() (val V, store bool)) (V, Disposition, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			val := el.Value.(*Pair[K, V]).Val
			c.mu.Unlock()
			return val, Hit, nil
		}
		if cl, ok := c.calls[key]; ok {
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				var zero V
				return zero, Shared, ctx.Err()
			}
			if cl.ok {
				return cl.val, Shared, nil
			}
			continue
		}
		cl := &call[V]{done: make(chan struct{})}
		c.calls[key] = cl
		c.mu.Unlock()
		c.lead(key, cl, fn)
		return cl.val, Computed, nil
	}
}

// lead runs the leader's computation. The deferred cleanup runs even when fn
// panics: a completed value is stored first, then the call is deregistered
// and done is closed, so waiters never hang and a lookup arriving at any
// moment finds the key stored or in flight.
func (c *Cache[K, V]) lead(key K, cl *call[V], fn func() (V, bool)) {
	store := false
	defer func() {
		if store {
			c.Put(key, cl.val)
		}
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, store = fn()
	cl.ok = true
}

// Len returns the number of stored values.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions returns how many values the bound has pushed out so far.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Snapshot returns a copy of the stored pairs, most recently used first.
func (c *Cache[K, V]) Snapshot() []Pair[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Pair[K, V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Pair[K, V]))
	}
	return out
}
