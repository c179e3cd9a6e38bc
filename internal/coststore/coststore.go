// Package coststore is the shared, content-addressed stage-cost store behind
// fleet-scale serving: one Store holds the solved per-(stage, iso-class)
// knapsack entries of every planner a daemon constructs, so near-duplicate
// requests — the same model family swept over cluster shapes, micro-batch
// counts or memory budgets — pay for each knapsack exactly once across the
// whole process instead of once per planner.
//
// Entries are addressed by a 32-byte SHA-256 key the planner derives from the
// full content of the solve: the synthesized cost profile (unit times, saved
// bytes, boundary payload), the 3D strategy, the memory model and budget, the
// quantum and search flags, and the (stage, iso-class) range — see
// core.CostSource. Two planners whose keys collide are, by construction,
// asking for the same pure function of the same inputs, which is what makes
// sharing sound: a stored entry is byte-for-byte the entry the consumer would
// have solved itself, so plans built from store hits are identical to plans
// built cold (proved end to end by core's TestDifferential store legs).
//
// The store is one memo.Cache — the repo's compute-once bounded cache — so it
// bounds its memory with an LRU list and computes a missing key once: when N
// planners ask for it at the same time, one computes and N-1 wait and share,
// which is the §5.3 iso-class amortization lifted from "within one search" to
// "across all requests of the process". What this package adds on top is the
// content address, the lookup counters and the snapshot file.
//
// A store can persist itself: SaveSnapshot writes a deterministic,
// version-stamped, checksummed JSON snapshot (sorted by key, so two saves of
// one population are byte-identical) and LoadSnapshot restores it, giving a
// restarted daemon a warm substrate (cmd/adapiped -cost-store-path).
package coststore

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"adapipe/internal/memo"
	"adapipe/internal/memory"
	"adapipe/internal/recompute"
)

// Key is the 32-byte content address of one cost entry (a SHA-256 over the
// canonical solve inputs; the planner computes it, the store never inspects
// it).
type Key [32]byte

// String returns the lowercase-hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the lowercase-hex form produced by String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("coststore: invalid key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// Entry is one solved stage cost in its shareable form: the modeled forward
// and backward times, the chosen recomputation solution, the memory breakdown
// and the feasibility verdict — exactly the fields the planner caches
// per iso-class. Entries are immutable once stored: Sol.Saved and Keys are
// shared with every consumer, so a caller wanting a strategy of its own takes
// Strategy.
type Entry struct {
	// Fwd and Bwd are the modeled per-micro-batch stage times in seconds
	// (Bwd includes the recomputation overhead of the chosen strategy).
	Fwd, Bwd float64
	// Sol is the chosen save/recompute strategy; Sol.Saved[g] counts the
	// saved copies of the unit Keys[g].
	Sol  recompute.Solution
	Keys []string
	// Mem is the modeled peak memory.
	Mem memory.Breakdown
	// OK reports memory feasibility.
	OK bool
}

// Strategy returns a new map of the entry's non-zero counts by unit key.
func (e *Entry) Strategy() map[string]int {
	m := make(map[string]int, len(e.Keys))
	for g, c := range e.Sol.Saved {
		if c != 0 {
			m[e.Keys[g]] = int(c)
		}
	}
	return m
}

// Disposition classifies how GetOrCompute satisfied a lookup.
type Disposition = memo.Disposition

const (
	// Computed means the caller ran the solve itself (a cold miss).
	Computed = memo.Computed
	// Hit means the entry was already stored.
	Hit = memo.Hit
	// Shared means the caller waited on another caller's in-flight solve
	// for the same key.
	Shared = memo.Shared
)

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups served by a stored entry, and Shared the lookups
	// that piggybacked on another caller's in-flight solve; both are
	// knapsack runs the store saved. Misses counts the solves that actually
	// ran (the cold path).
	Hits, Misses, Shared int64
	// Evictions counts entries the LRU bound pushed out.
	Evictions int64
	// Entries is the current population.
	Entries int64
}

// Store is a concurrency-safe, LRU-bounded cost store: one memo.Cache plus
// the lookup counters. The zero value is not usable; construct with New.
type Store struct {
	cache *memo.Cache[Key, Entry]

	hits, misses, shared atomic.Int64
}

// New builds a store bounded to max entries. max <= 0 selects the default of
// 4096.
func New(max int) *Store {
	if max <= 0 {
		max = 4096
	}
	return &Store{cache: memo.New[Key, Entry](max)}
}

// GetOrCompute returns the entry for key, computing and storing it via
// compute when absent. Concurrent callers for one missing key run compute
// exactly once: the first caller leads, the rest block and share the result
// (Shared). compute must be a pure function of the key's content — the store
// hands its result to every waiter and to all future lookups verbatim.
//
// An abandoned compute (panic) stores nothing; waiters retry, so the store
// never holds partial entries — a property the cancellation-mid-sweep tests
// rely on (an aborted request leaves the store clean or fully correct, never
// poisoned).
func (st *Store) GetOrCompute(key Key, compute func() Entry) (Entry, Disposition) {
	// The CostSource signature carries no context: a planner that waits on
	// another planner's solve waits it out, so the error is always nil.
	e, disp, _ := st.cache.GetOrCompute(context.TODO(), key, func() (Entry, bool) { return compute(), true })
	switch disp {
	case Hit:
		st.hits.Add(1)
	case Shared:
		st.shared.Add(1)
	default:
		st.misses.Add(1)
	}
	return e, disp
}

// Len returns the current entry count.
func (st *Store) Len() int { return st.cache.Len() }

// StatsSnapshot returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not a single atomic cut, which is
// fine for monitoring).
func (st *Store) StatsSnapshot() Stats {
	return Stats{
		Hits:      st.hits.Load(),
		Misses:    st.misses.Load(),
		Shared:    st.shared.Load(),
		Evictions: st.cache.Evictions(),
		Entries:   int64(st.Len()),
	}
}
