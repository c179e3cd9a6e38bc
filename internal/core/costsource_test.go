package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"adapipe/internal/coststore"
)

// TestCostStorePlanMatchesSeed is the store's differential proof: for every
// store state — no store (the seed planner), a cold store, a store warmed by a previous identical search, and a store saved to
// disk and restored into a fresh one — the produced plan serializes to
// byte-identical JSON. The shared cost store may change how a stage cost is
// obtained, never what it is.
func TestCostStorePlanMatchesSeed(t *testing.T) {
	type cfg struct {
		decoders, pp, n int
		reserve         float64
		part            PartitionMode
	}
	cases := []cfg{
		{decoders: 3, pp: 2, n: 4, reserve: 0.15, part: PartitionAdaptive},
		{decoders: 6, pp: 4, n: 8, reserve: 0.15, part: PartitionAdaptive},
		{decoders: 6, pp: 4, n: 16, reserve: 0.60, part: PartitionExact},
		{decoders: 15, pp: 8, n: 16, reserve: 0.15, part: PartitionEven},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("L%d_p%d_n%d_r%.2f_%s", 2*c.decoders+2, c.pp, c.n, c.reserve, c.part)
		t.Run(name, func(t *testing.T) {
			// Seed: no store attached.
			seed, err := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part).Plan()
			if err != nil {
				t.Fatalf("seed: %v", err)
			}
			want, err := json.Marshal(seed)
			if err != nil {
				t.Fatal(err)
			}

			// Cold store: every lookup is a store miss solved and published.
			store := coststore.New(8192)
			cold := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part)
			if err := cold.SetCostSource(store); err != nil {
				t.Fatalf("attach: %v", err)
			}
			coldPlan, err := cold.Plan()
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			got, err := json.Marshal(coldPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cold-store plan differs from seed\nseed: %s\ngot:  %s", want, got)
			}
			if cold.Stats.StoreMisses == 0 {
				t.Errorf("cold planner recorded no store misses")
			}

			// Warm store: a second planner answers every knapsack from the
			// store — zero fresh solves, the cross-request reuse the store
			// exists for.
			warm := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part)
			if err := warm.SetCostSource(store); err != nil {
				t.Fatal(err)
			}
			warmPlan, err := warm.Plan()
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			got, err = json.Marshal(warmPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("warm-store plan differs from seed")
			}
			if warm.Stats.KnapsackRuns != 0 {
				t.Errorf("warm planner solved %d knapsacks, want 0 (all served by the store)", warm.Stats.KnapsackRuns)
			}
			if warm.Stats.StoreHits == 0 {
				t.Errorf("warm planner recorded no store hits")
			}
			if warm.Stats.StoreMisses != 0 {
				t.Errorf("warm planner recorded %d store misses, want 0", warm.Stats.StoreMisses)
			}

			// Restored-from-disk: save the warm store, load into a fresh
			// one, plan again.
			path := filepath.Join(t.TempDir(), "store.json")
			if err := store.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			restored := coststore.New(8192)
			if err := restored.LoadSnapshot(path); err != nil {
				t.Fatal(err)
			}
			rest := tinyPlanner(t, c.decoders, c.pp, c.n, c.reserve, c.part)
			if err := rest.SetCostSource(restored); err != nil {
				t.Fatal(err)
			}
			restPlan, err := rest.Plan()
			if err != nil {
				t.Fatalf("restored: %v", err)
			}
			got, err = json.Marshal(restPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restored-store plan differs from seed")
			}
			if rest.Stats.KnapsackRuns != 0 {
				t.Errorf("restored-store planner solved %d knapsacks, want 0", rest.Stats.KnapsackRuns)
			}
		})
	}
}

// TestCostFamilySeparation checks the family fingerprint isolates entries
// that must not be shared: two planners differing in a solve-relevant input
// (memory reserve) derive different store keys, while two differing only in a
// partition-level input (global batch) share every entry.
func TestCostFamilySeparation(t *testing.T) {
	store := coststore.New(8192)

	a := tinyPlanner(t, 6, 4, 8, 0.15, PartitionAdaptive)
	if err := a.SetCostSource(store); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	if a.Stats.StoreMisses == 0 {
		t.Fatal("first planner published nothing")
	}

	// Same family, different global batch: the partition DP changes, the
	// stage costs do not — every lookup must hit.
	b := tinyPlanner(t, 6, 4, 16, 0.15, PartitionAdaptive)
	if err := b.SetCostSource(store); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.StoreMisses != 0 {
		t.Errorf("global-batch sweep re-solved %d knapsacks; family should share them all", b.Stats.StoreMisses)
	}
	if b.Stats.StoreHits == 0 {
		t.Error("global-batch sweep recorded no store hits")
	}

	// Different memory reserve: a different budget is a different family —
	// nothing may be shared.
	c := tinyPlanner(t, 6, 4, 8, 0.60, PartitionAdaptive)
	if err := c.SetCostSource(store); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.StoreHits != 0 {
		t.Errorf("changed memory budget still got %d store hits; families must not collide", c.Stats.StoreHits)
	}
}

// TestSetCostSourceDetach checks that a nil source detaches cleanly and the
// planner goes back to private solving.
func TestSetCostSourceDetach(t *testing.T) {
	store := coststore.New(64)
	pl := tinyPlanner(t, 3, 2, 4, 0.15, PartitionAdaptive)
	if err := pl.SetCostSource(store); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCostSource(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	if pl.Stats.StoreHits+pl.Stats.StoreMisses != 0 {
		t.Errorf("detached planner still touched the store: %d hits, %d misses",
			pl.Stats.StoreHits, pl.Stats.StoreMisses)
	}
	if store.Len() != 0 {
		t.Errorf("detached planner published %d entries", store.Len())
	}
}
