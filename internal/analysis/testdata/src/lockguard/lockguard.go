// Package lockguard is the analysistest fixture for the lockguard analyzer.
package lockguard

import "sync"

// Counter exercises the `guarded by` annotation on a plain Mutex.
type Counter struct {
	mu sync.Mutex
	// count is the running total.
	// guarded by mu
	count int
	hits  int    // guarded by mu
	name  string // immutable after construction; deliberately unannotated
}

// Add locks around the write — OK.
func (c *Counter) Add(n int) {
	c.mu.Lock()
	c.count += n
	c.mu.Unlock()
}

// Get holds the lock via defer — OK.
func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Race reads a guarded field with no lock — flagged.
func (c *Counter) Race() int {
	return c.count // want `access to c\.count without holding mu`
}

// EarlyUnlockReturn unlocks-and-returns in a branch; the fall-through path
// still holds the lock — OK.
func (c *Counter) EarlyUnlockReturn(n int) int {
	c.mu.Lock()
	if n < 0 {
		c.mu.Unlock()
		return 0
	}
	c.count += n
	c.mu.Unlock()
	return n
}

// BranchUnlockLeaks unlocks in a branch that falls through, so the access
// after the merge is unprotected on one path — flagged.
func (c *Counter) BranchUnlockLeaks(n int) {
	c.mu.Lock()
	if n < 0 {
		c.mu.Unlock()
	}
	c.count += n // want `access to c\.count without holding mu`
	if n >= 0 {
		c.mu.Unlock()
	}
}

// GoroutineStartsUnlocked: a spawned goroutine does not inherit the caller's
// critical section — flagged inside the literal.
func (c *Counter) GoroutineStartsUnlocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.hits++ // want `access to c\.hits without holding mu`
	}()
}

// InlineClosureInherits: a literal defined inside the critical section keeps
// the lock state of its definition point — OK.
func (c *Counter) InlineClosureInherits() {
	c.mu.Lock()
	defer c.mu.Unlock()
	bump := func() { c.hits++ }
	bump()
}

// Name reads an unannotated field without the lock — OK.
func (c *Counter) Name() string { return c.name }

// SwitchAllPathsLocked locks in every case before the merged access — OK.
func (c *Counter) SwitchAllPathsLocked(mode int) int {
	switch mode {
	case 0:
		c.mu.Lock()
	default:
		c.mu.Lock()
	}
	v := c.count
	c.mu.Unlock()
	return v
}

// Table exercises RWMutex and reader locks.
type Table struct {
	rw sync.RWMutex
	// rows maps key to row id.
	// guarded by rw
	rows map[string]int
}

// Lookup holds the read lock — OK.
func (t *Table) Lookup(k string) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.rows[k]
}

// Dirty reads without any lock — flagged.
func (t *Table) Dirty(k string) int {
	return t.rows[k] // want `access to t\.rows without holding rw`
}

// Memo is a type-parameterised struct: the annotations bind to methods whose
// receiver spells the type parameters, with one parameter or several.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	// vals holds the stored values.
	// guarded by mu
	vals map[K]V
}

// Get locks before reading — OK.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vals[k]
	return v, ok
}

// Peek reads without the lock — flagged.
func (m *Memo[K, V]) Peek(k K) V {
	return m.vals[k] // want `access to m\.vals without holding mu`
}

// Box has a single type parameter (an IndexExpr receiver, not IndexListExpr).
type Box[T any] struct {
	mu sync.Mutex
	v  T // guarded by mu
}

// Set locks before writing — OK.
func (b *Box[T]) Set(v T) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

// Leak reads without the lock — flagged.
func (b *Box[T]) Leak() T {
	return b.v // want `access to b\.v without holding mu`
}

// BadAnnotation names a field that is not a mutex — flagged at the type.
type BadAnnotation struct { // want `guarded by missing.*not a sync\.Mutex/RWMutex field`
	count int // guarded by missing
}
