package coststore_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// fixturePath is a snapshot saved by the store before strategies became count
// vectors (the map-keyed Saved of recompute.Solution, commit d00abf5): a
// memory-tight six-layer model whose one search fills knapsack tables, so it
// holds searched, whole-fit and infeasible entries. It is never regenerated.
const fixturePath = "testdata/tiny6_p4_seq64k.json"

// fixturePlanner is the planner the fixture was saved from.
func fixturePlanner(t *testing.T) *core.Planner {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MemoryReserve = 0.925
	pl, err := core.NewPlanner(model.Tiny(6), hardware.ClusterA(), parallel.Strategy{TP: 1, PP: 4, DP: 1},
		parallel.Config{GlobalBatch: 6, MicroBatch: 1, SeqLen: 65536}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// planJSON runs one search on pl and returns the plan's JSON.
func planJSON(t *testing.T, pl *core.Planner) []byte {
	t.Helper()
	plan, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotBytesUnchangedFromParent saves the store after the fixture's
// search and requires the fixture's bytes exactly: the snapshot codec spells
// a strategy as the same sorted object of non-zero counts it always did.
func TestSnapshotBytesUnchangedFromParent(t *testing.T) {
	want, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	st := coststore.New(0)
	pl := fixturePlanner(t)
	if err := pl.SetCostSource(st); err != nil {
		t.Fatal(err)
	}
	planJSON(t, pl)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot after the fixture's search differs from %s (%d vs %d bytes)", fixturePath, len(got), len(want))
	}
}

// TestSnapshotFixturePlansWarm loads the fixture into a fresh store, as a
// restarted daemon does, and requires the planner that reads it to plan
// byte-identically to a cold planner without solving anything itself.
func TestSnapshotFixturePlansWarm(t *testing.T) {
	cold := planJSON(t, fixturePlanner(t))
	st := coststore.New(0)
	if err := st.LoadSnapshot(fixturePath); err != nil {
		t.Fatal(err)
	}
	pl := fixturePlanner(t)
	if err := pl.SetCostSource(st); err != nil {
		t.Fatal(err)
	}
	if warm := planJSON(t, pl); !bytes.Equal(warm, cold) {
		t.Fatalf("plan from the loaded fixture differs from the cold plan:\n%s\n%s", warm, cold)
	}
	stats := pl.StatsSnapshot()
	if stats.StoreMisses != 0 || stats.StoreHits == 0 || stats.KnapsackRuns != 0 {
		t.Fatalf("planning from the fixture: %d store misses, %d hits, %d knapsack runs; want 0, > 0, 0",
			stats.StoreMisses, stats.StoreHits, stats.KnapsackRuns)
	}
}
