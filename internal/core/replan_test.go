package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func replanSetup(t *testing.T) (*Planner, *Plan) {
	t.Helper()
	cfg, cl, strat, train := gptSetup()
	opts := DefaultOptions()
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return pl, p
}

func TestSetStageScaleValidation(t *testing.T) {
	pl, plan0 := replanSetup(t)
	p := pl.strat.PP
	bad := [][]float64{
		make([]float64, p-1),
		func() []float64 { s := ones(p); s[0] = 0; return s }(),
		func() []float64 { s := ones(p); s[1] = -2; return s }(),
		func() []float64 { s := ones(p); s[2] = math.NaN(); return s }(),
		func() []float64 { s := ones(p); s[0] = math.Inf(1); return s }(),
	}
	for i, s := range bad {
		if err := pl.SetStageScale(s); err == nil {
			t.Errorf("case %d: scale %v accepted", i, s)
		}
		if _, err := pl.ReplanWithScale(plan0, s); err == nil {
			t.Errorf("case %d: replan under scale %v accepted", i, s)
		}
	}
	// A rejected scale installs nothing: the next search is the nominal one.
	p1, err := pl.Plan()
	if got, want := planned(t, pl, p1, err), planned(t, pl, plan0, nil); !bytes.Equal(got, want) {
		t.Errorf("plan after rejected scales differs from the nominal plan:\n got %s\nwant %s", got, want)
	}
	if err := pl.SetStageScale(ones(p)); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetStageScale(nil); err != nil {
		t.Fatal(err)
	}
}

func ones(p int) []float64 {
	s := make([]float64, p)
	for i := range s {
		s[i] = 1
	}
	return s
}

// TestStageScaleRepricesCosts: scaling a stage multiplies its modeled times
// without disturbing other stages or poisoning the nominal cost cache.
func TestStageScaleRepricesCosts(t *testing.T) {
	pl, plan0 := replanSetup(t)
	s0 := plan0.Stages[0]

	scale := ones(pl.strat.PP)
	scale[0] = 3
	if err := pl.SetStageScale(scale); err != nil {
		t.Fatal(err)
	}
	fwd, bwd, ok := pl.CostFor(0, s0.LayerLo, s0.LayerHi-1)
	if !ok {
		t.Fatal("scaled range became infeasible; scale must not affect memory")
	}
	if math.Abs(fwd-3*s0.Fwd) > 1e-12*s0.Fwd || math.Abs(bwd-3*s0.Bwd) > 1e-12*s0.Bwd {
		t.Fatalf("scaled costs (%g, %g), want 3x nominal (%g, %g)", fwd, bwd, 3*s0.Fwd, 3*s0.Bwd)
	}

	if err := pl.SetStageScale(nil); err != nil {
		t.Fatal(err)
	}
	fwd, bwd, _ = pl.CostFor(0, s0.LayerLo, s0.LayerHi-1)
	if fwd != s0.Fwd || bwd != s0.Bwd {
		t.Fatalf("nominal costs (%g, %g) changed after scale reset, want (%g, %g): cache was poisoned",
			fwd, bwd, s0.Fwd, s0.Bwd)
	}
}

// TestReplanAdoptsFasterPartition: a 2x straggler on stage 0 makes the
// search shift layers off the slow stage; the adopted plan's simulated
// iteration must strictly beat the repriced incumbent's.
func TestReplanAdoptsFasterPartition(t *testing.T) {
	pl, old := replanSetup(t)
	scale := ones(pl.strat.PP)
	scale[0] = 2

	r, err := pl.ReplanWithScale(old, scale)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Adopted {
		t.Fatalf("2x straggler replan not adopted: old sim %g, new sim %g", r.OldSim.IterTime, r.NewSim.IterTime)
	}
	if r.NewSim.IterTime >= r.OldSim.IterTime {
		t.Fatalf("adopted plan simulates at %g, repriced incumbent at %g", r.NewSim.IterTime, r.OldSim.IterTime)
	}
	if r.Speedup() <= 1 {
		t.Fatalf("speedup = %g, want > 1", r.Speedup())
	}
	// The new plan must shed work from the degraded stage.
	if r.New.Stages[0].Layers() >= old.Stages[0].Layers() {
		t.Errorf("slow stage kept %d layers (had %d); expected the search to shrink it",
			r.New.Stages[0].Layers(), old.Stages[0].Layers())
	}
	// The repriced incumbent keeps the old bounds but pays the scaled cost.
	for s := range old.Stages {
		if r.Old.Stages[s].LayerLo != old.Stages[s].LayerLo || r.Old.Stages[s].LayerHi != old.Stages[s].LayerHi {
			t.Fatalf("repriced incumbent changed bounds at stage %d", s)
		}
	}
	if r.Old.Stages[0].Fwd <= old.Stages[0].Fwd {
		t.Errorf("repriced incumbent stage 0 fwd %g not scaled up from %g", r.Old.Stages[0].Fwd, old.Stages[0].Fwd)
	}
}

// TestReplanRejectsNoOpScale: with all-ones scale the search reproduces the
// incumbent's cost and the replan must not be adopted (AlmostEq guards the
// strictly-better test against float noise).
func TestReplanRejectsNoOpScale(t *testing.T) {
	pl, old := replanSetup(t)
	r, err := pl.ReplanWithScale(old, ones(pl.strat.PP))
	if err != nil {
		t.Fatal(err)
	}
	if r.Adopted {
		t.Fatalf("no-op scale adopted a replan: old sim %g, new sim %g", r.OldSim.IterTime, r.NewSim.IterTime)
	}
}

func TestReplanValidation(t *testing.T) {
	pl, old := replanSetup(t)
	if _, err := pl.ReplanWithScale(nil, ones(pl.strat.PP)); err == nil {
		t.Error("nil incumbent accepted")
	}
	if _, err := pl.ReplanWithScale(old, []float64{1}); err == nil || !strings.Contains(err.Error(), "stage scale") {
		t.Errorf("short scale accepted (err=%v)", err)
	}
}
