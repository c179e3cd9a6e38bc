// Package memo is the repo's one compute-once bounded cache: an LRU of
// completed values plus the in-flight computations for missing keys, behind
// a single mutex. It is §5.3's "solve each isomorphic class once, share the
// result" lifted out of one search: the serving layer's response cache and
// request coalescing, its warm-planner store, its trace ring and the shared
// cost store are each one Cache.
//
// The LRU and the in-flight map share a lock because the two questions "is
// it stored?" and "is someone computing it?" must be answered together: a
// value moves from in flight to stored before its call is deregistered, so a
// lookup never finds a key in neither place while its first computation is
// still the only one needed.
//
// In steady state no operation allocates: the LRU's nodes live in one slice
// linked by index and an eviction reuses the tail's slot, a call's done
// channel is made only when a waiter arrives, and a call no waiter saw is
// recycled.
package memo

import (
	"context"
	"fmt"
	"math"
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

// call is one in-flight computation. Its first waiter makes done, under the
// cache's mutex; a call that finishes with done still nil was seen by no
// one and goes back to the cache's free list. ok stays false when the
// leader's computation panicked, which tells the waiters to go around again
// (and possibly lead).
type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool
	// next links the free list.
	next *call[V]
}

// Cache is a concurrency-safe LRU bounded to max values, with compute-once
// semantics for missing keys. Get, Put and GetOrCompute all count as use. The
// zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	// lru holds the stored values.
	// guarded by mu
	lru ring[K, V]
	// calls holds the in-flight computation per missing key.
	// guarded by mu
	calls map[K]*call[V]
	// free heads the list of finished calls no waiter saw.
	// guarded by mu
	free *call[V]
}

// New builds a cache bounded to max values (at most math.MaxInt32). max <= 0
// stores nothing — every Get misses and every Put is dropped — while
// concurrent GetOrCompute calls for one key still share a single computation.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{
		lru:   ring[K, V]{max: min(max, math.MaxInt32), index: make(map[K]int32), head: -1, tail: -1},
		calls: make(map[K]*call[V]),
	}
}

// Get returns the stored value for key and promotes it to most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(key)
}

// Put stores (or replaces) the value for key as most recently used, evicting
// the least recently used value when the bound is reached.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, val)
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
		if val, ok := c.lru.get(key); ok {
			c.mu.Unlock()
			return val, Hit, nil
		}
		if cl, ok := c.calls[key]; ok {
			if cl.done == nil {
				cl.done = make(chan struct{})
			}
			done := cl.done
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				var zero V
				return zero, Shared, ctx.Err()
			}
			if cl.ok {
				return cl.val, Shared, nil
			}
			continue
		}
		cl := c.free
		if cl != nil {
			c.free, cl.next = cl.next, nil
		} else {
			cl = new(call[V])
		}
		c.calls[key] = cl
		c.mu.Unlock()
		return c.lead(key, cl, fn), Computed, nil
	}
}

// lead runs the leader's computation. The deferred cleanup runs even when fn
// panics, and in one critical section: a completed value is stored, then the
// call is deregistered, so a lookup arriving at any moment finds the key
// stored or in flight. A call with waiters gets the outcome and its done
// channel is closed after the lock is released, so waiters never hang; a
// call without is recycled.
func (c *Cache[K, V]) lead(key K, cl *call[V], fn func() (V, bool)) (val V) {
	ok, store := false, false
	defer func() {
		c.mu.Lock()
		if ok && store {
			c.lru.put(key, val)
		}
		delete(c.calls, key)
		done := cl.done
		if done == nil {
			*cl = call[V]{next: c.free}
			c.free = cl
		} else {
			cl.val, cl.ok = val, ok
		}
		c.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()
	val, store = fn()
	ok = true
	return val
}

// Len returns the number of stored values.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lru.index)
}

// Evictions returns how many values the bound has pushed out so far.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.evictions
}

// Snapshot returns a copy of the stored pairs, most recently used first.
func (c *Cache[K, V]) Snapshot() []Pair[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Pair[K, V], 0, len(c.lru.index))
	for i := c.lru.head; i >= 0; i = c.lru.nodes[i].next {
		out = append(out, Pair[K, V]{Key: c.lru.nodes[i].key, Val: c.lru.nodes[i].val})
	}
	return out
}

// ring is an LRU list bounded to max values whose nodes live in one slice
// and link each other by index, most recently used at head; index finds a
// key's node. The slice grows to the bound and no further: from then on
// each new key takes over the tail's slot. -1 is the null link.
type ring[K comparable, V any] struct {
	max        int
	nodes      []node[K, V]
	index      map[K]int32
	head, tail int32
	// evictions counts the values the bound pushed out.
	evictions int64
}

// node is one stored value and its neighbours' indices.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// get returns key's value and makes it the most recently used.
func (r *ring[K, V]) get(key K) (V, bool) {
	i, ok := r.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	r.toFront(i)
	return r.nodes[i].val, true
}

// put stores val under key as the most recently used, in the tail's slot
// when max values are stored already. With max <= 0 it stores nothing.
func (r *ring[K, V]) put(key K, val V) {
	if i, ok := r.index[key]; ok {
		r.nodes[i].val = val
		r.toFront(i)
		return
	}
	var i int32
	switch {
	case r.max <= 0:
		return
	case len(r.nodes) < r.max:
		i = int32(len(r.nodes))
		r.nodes = append(r.nodes, node[K, V]{key: key, val: val, prev: -1, next: -1})
	default:
		i = r.tail
		r.unlink(i)
		delete(r.index, r.nodes[i].key)
		r.nodes[i].key, r.nodes[i].val = key, val
		r.evictions++
	}
	r.index[key] = i
	r.pushFront(i)
}

// toFront moves node i to the head.
func (r *ring[K, V]) toFront(i int32) {
	if r.head != i {
		r.unlink(i)
		r.pushFront(i)
	}
}

// unlink takes node i out of the list.
func (r *ring[K, V]) unlink(i int32) {
	n := &r.nodes[i]
	if n.prev >= 0 {
		r.nodes[n.prev].next = n.next
	} else {
		r.head = n.next
	}
	if n.next >= 0 {
		r.nodes[n.next].prev = n.prev
	} else {
		r.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

// pushFront links the unlinked node i in as the head.
func (r *ring[K, V]) pushFront(i int32) {
	n := &r.nodes[i]
	n.prev, n.next = -1, r.head
	if r.head >= 0 {
		r.nodes[r.head].prev = i
	} else {
		r.tail = i
	}
	r.head = i
}
