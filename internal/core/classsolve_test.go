package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adapipe/internal/coststore"
	"adapipe/internal/model"
	"adapipe/internal/partition"
)

// referenceReachable is the reachable domain from first principles: some
// range of (i, j)'s class — the range itself without isomorphism; otherwise
// any range of the same length, first-layer kind and head inclusion — can be
// stage s of a partitioning that gives each of the s stages before it and the
// p−s−1 stages after it at least one layer.
func referenceReachable(pl *Planner, s, i, j int) bool {
	L, p := len(pl.layers), pl.strat.PP
	for i2 := 0; i2+(j-i) < L; i2++ {
		j2 := i2 + (j - i)
		if pl.opts.DisableIsomorphism && i2 != i {
			continue
		}
		if pl.layers[i2].Kind != pl.layers[i].Kind || (j2 == L-1) != (j == L-1) {
			continue
		}
		before, after := i2, L-1-j2
		fitsBefore := before >= s && (s > 0 || before == 0)
		fitsAfter := after >= p-1-s && (s < p-1 || after == 0)
		if fitsBefore && fitsAfter {
			return true
		}
	}
	return false
}

// forgetfulSource is a CostSource that stores every solve and then serves
// only the keys with an even first byte: a later planner sees hits and misses
// interleaved within one class, so its table is filled from a claim that is
// not the first.
type forgetfulSource struct {
	mu      sync.Mutex
	entries map[coststore.Key]coststore.Entry
}

func (f *forgetfulSource) GetOrCompute(key coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition) {
	f.mu.Lock()
	e, ok := f.entries[key]
	f.mu.Unlock()
	if ok && key[0]&1 == 0 {
		return e, coststore.Hit
	}
	e = compute()
	f.mu.Lock()
	f.entries[key] = e
	f.mu.Unlock()
	return e, coststore.Computed
}

// TestClassSolveOrderIndependent holds the class-level solve to the
// first-principles oracle whichever stage of a class asks first. A solve
// claims the same-quantum siblings of the entry it won and reads them all
// from one table filled to the largest budget among them, so which stage
// owns the table — the one with the largest budget, the smallest, or one in
// between — depends on the request order; the published entries must not.
// Every (stage, range) is checked bit for bit against referenceStageCost
// after requesting the stages in ascending, descending and shuffled order,
// with and without a cost source (one that forgets half its keys, so tables
// are also filled part-way down a claim list).
func TestClassSolveOrderIndependent(t *testing.T) {
	for _, c := range shapes {
		if c.stride == 0 {
			continue
		}
		modes := []RecomputeMode{RecomputeAdaptive}
		isoOff := []bool{false}
		if c.stride == 1 {
			modes = append(modes, RecomputeLayerLevel)
			isoOff = append(isoOff, true)
		}
		for _, mode := range modes {
			for _, noIso := range isoOff {
				t.Run(fmt.Sprintf("%s/%s/noiso=%v", c.name, mode, noIso), func(t *testing.T) {
					c.rec, c.noIso = mode, noIso
					p := c.pp
					orders := map[string][]int{"ascending": make([]int, p), "descending": make([]int, p), "shuffled": nil}
					for s := 0; s < p; s++ {
						orders["ascending"][s] = s
						orders["descending"][s] = p - 1 - s
					}
					orders["shuffled"] = rand.New(rand.NewSource(int64(p))).Perm(p)

					for name, order := range orders {
						pl := c.planner(t)
						for _, r := range c.ranges(pl.LayerCount()) {
							// The first stage of the order runs the class
							// solve; the checks after it read what that
							// solve published on the side, or solve what it
							// could not share.
							for _, s := range order {
								checkAgainstReference(t, pl, s, r[0], r[1])
							}
						}
						st := pl.StatsSnapshot()
						if mode == RecomputeAdaptive && st.KnapsackShared == 0 {
							t.Errorf("%s order: no strategy was read from a shared table (%s)", name, st)
						}
					}

					// Through a cost source: a first planner fills it, a
					// second sees every other key missing.
					src := &forgetfulSource{entries: map[coststore.Key]coststore.Entry{}}
					for round := 0; round < 2; round++ {
						pl := c.planner(t)
						if err := pl.SetCostSource(src); err != nil {
							t.Fatal(err)
						}
						for _, r := range c.ranges(pl.LayerCount()) {
							for _, s := range orders["shuffled"] {
								checkAgainstReference(t, pl, s, r[0], r[1])
							}
						}
						if st := pl.StatsSnapshot(); round == 1 && (st.StoreHits == 0 || st.StoreMisses == 0) {
							t.Errorf("forgetful source served %d hits and %d misses, want both", st.StoreHits, st.StoreMisses)
						}
					}
				})
			}
		}
	}
}

// TestSearchPublishesOnlyReachable checks that a search — the DP's own
// lookups and the sibling entries its class solves publish on the side —
// publishes nothing outside the reachable domain. An entry outside it can
// never be read by a plan; solving one is pure waste.
func TestSearchPublishesOnlyReachable(t *testing.T) {
	for _, c := range shapes {
		if c.stride == 0 {
			continue
		}
		for _, part := range []PartitionMode{PartitionAdaptive, PartitionExact} {
			for _, noIso := range []bool{false, true} {
				if noIso && c.stride > 1 {
					continue // O(pL²) raw entries on the big models
				}
				c.part, c.noIso = part, noIso
				pl := c.planner(t)
				if _, err := pl.Plan(); err != nil {
					t.Fatal(err)
				}
				L, published := pl.LayerCount(), 0
				for s := 0; s < c.pp; s++ {
					for i := 0; i < L; i++ {
						for j := i; j < L; j++ {
							if pl.table.hot[pl.table.index(s, i, j)].State == partition.Absent {
								continue
							}
							published++
							if !referenceReachable(pl, s, i, j) {
								t.Fatalf("%s %s noiso=%v: entry (%d,%d,%d) is published but no partitioning can reach it",
									c.name, part, noIso, s, i, j)
							}
							if !pl.table.reachable(s, i, j) {
								t.Fatalf("%s: costTable.reachable(%d,%d,%d) = false, first principles say reachable", c.name, s, i, j)
							}
						}
					}
				}
				if published == 0 {
					t.Fatalf("%s: search published nothing", c.name)
				}
			}
		}
	}
}

// TestReachableMatchesFirstPrinciples compares costTable.reachable with the
// brute-force definition on every (s, i, j) of the small shapes, degenerate
// ones (p = 1, p = L) included.
func TestReachableMatchesFirstPrinciples(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {3, 1}, {3, 2}, {3, 8}, {6, 4}, {6, 5}, {9, 3}} {
		for _, noIso := range []bool{false, true} {
			pl := row{model: model.Tiny(shape[0]), pp: shape[1], seq: 2048, reserve: 0.15, noIso: noIso}.planner(t)
			L := pl.LayerCount()
			for s := 0; s < shape[1]; s++ {
				for i := 0; i < L; i++ {
					for j := i; j < L; j++ {
						if got, want := pl.table.reachable(s, i, j), referenceReachable(pl, s, i, j); got != want {
							t.Fatalf("tiny(%d) p=%d noiso=%v: reachable(%d,%d,%d) = %v, first principles %v",
								shape[0], shape[1], noIso, s, i, j, got, want)
						}
					}
				}
			}
		}
	}
}
