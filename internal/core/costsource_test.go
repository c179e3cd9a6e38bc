package core

import (
	"testing"

	"adapipe/internal/coststore"
)

// TestSetCostSourceDetach checks that a nil source detaches cleanly and the
// planner goes back to private solving.
func TestSetCostSourceDetach(t *testing.T) {
	store := coststore.New(64)
	pl := roomy.planner(t)
	if err := pl.SetCostSource(store); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCostSource(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	if s := pl.StatsSnapshot(); s.StoreHits+s.StoreMisses != 0 {
		t.Errorf("detached planner still touched the store: %d hits, %d misses", s.StoreHits, s.StoreMisses)
	}
	if store.Len() != 0 {
		t.Errorf("detached planner published %d entries", store.Len())
	}
}
