package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"adapipe/internal/model"
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

// TestReplanRejectsBadScales: ReplanWithScale refuses a scale vector of the
// wrong length or with an entry that is zero, negative, NaN or +Inf, and a
// refused scale leaves the next search the nominal one; the identity and nil
// scales are accepted.
func TestReplanRejectsBadScales(t *testing.T) {
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
		if _, err := pl.ReplanWithScale(plan0, s); err == nil {
			t.Errorf("case %d: replan under scale %v accepted", i, s)
		}
	}
	p1, err := pl.Plan()
	if got, want := planned(t, pl, p1, err), planned(t, pl, plan0, nil); !bytes.Equal(got, want) {
		t.Errorf("plan after rejected scales differs from the nominal plan:\n got %s\nwant %s", got, want)
	}
	for _, s := range [][]float64{ones(p), nil} {
		if _, err := pl.ReplanWithScale(plan0, s); err != nil {
			t.Errorf("scale %v: %v", s, err)
		}
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
// in the repriced incumbent without disturbing other stages or poisoning the
// nominal cost cache.
func TestStageScaleRepricesCosts(t *testing.T) {
	pl, plan0 := replanSetup(t)
	s0 := plan0.Stages[0]

	scale := ones(pl.strat.PP)
	scale[0] = 3
	r, err := pl.ReplanWithScale(plan0, scale)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Old.Stages[0]; math.Abs(got.Fwd-3*s0.Fwd) > 1e-12*s0.Fwd || math.Abs(got.Bwd-3*s0.Bwd) > 1e-12*s0.Bwd {
		t.Fatalf("scaled costs (%g, %g), want 3x nominal (%g, %g)", got.Fwd, got.Bwd, 3*s0.Fwd, 3*s0.Bwd)
	}
	for s, sp := range plan0.Stages[1:] {
		if got := r.Old.Stages[s+1]; got.Fwd != sp.Fwd || got.Bwd != sp.Bwd || got.Mem != sp.Mem {
			t.Errorf("unscaled stage %d repriced to (%g, %g), want (%g, %g)", s+1, got.Fwd, got.Bwd, sp.Fwd, sp.Bwd)
		}
	}
	if r.Old.Stages[0].Mem != s0.Mem {
		t.Error("scaling a stage changed its memory")
	}

	fwd, bwd, ok := pl.CostFor(0, s0.LayerLo, s0.LayerHi-1)
	if !ok || fwd != s0.Fwd || bwd != s0.Bwd {
		t.Fatalf("nominal costs (%g, %g, %v) after the replan, want (%g, %g, true): cache was poisoned",
			fwd, bwd, ok, s0.Fwd, s0.Bwd)
	}
}

// TestReplanInstallsNoScale: a replan prices only its own call. After one
// adopted replan and one that is not (the adopted plan replanned under the
// same scale finds nothing better), Plan gives a fresh planner's nominal
// bytes and CostFor the nominal times.
func TestReplanInstallsNoScale(t *testing.T) {
	pl, old := replanSetup(t)
	scale := ones(pl.strat.PP)
	scale[0] = 2
	r, err := pl.ReplanWithScale(old, scale)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Adopted {
		t.Fatal("2x straggler replan not adopted")
	}
	if r, err = pl.ReplanWithScale(r.New, scale); err != nil {
		t.Fatal(err)
	}
	if r.Adopted {
		t.Fatal("a replan of the adopted plan under the same scale was adopted")
	}

	fresh, nominal := replanSetup(t)
	p, err := pl.Plan()
	if got, want := planned(t, pl, p, err), planned(t, fresh, nominal, nil); !bytes.Equal(got, want) {
		t.Errorf("plan after the replans differs from a fresh planner's nominal plan:\n got %s\nwant %s", got, want)
	}
	for s, sp := range nominal.Stages {
		if f, b, ok := pl.CostFor(s, sp.LayerLo, sp.LayerHi-1); !ok || f != sp.Fwd || b != sp.Bwd {
			t.Errorf("CostFor(%d) = %g, %g, %v after the replans; nominal %g, %g", s, f, b, ok, sp.Fwd, sp.Bwd)
		}
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

// TestReplanRejectsMalformedBounds: an incumbent whose stages do not split the
// layers into non-empty ranges in order — out of order, or with an empty
// stage — is refused with an error that names its bounds, before anything is
// priced, and the next search is the nominal one. Such a plan can arrive
// decoded from JSON.
func TestReplanRejectsMalformedBounds(t *testing.T) {
	pl := row{name: "tiny8_p4", model: model.Tiny(8), pp: 4, n: 8, seq: 2048, reserve: 0.15}.planner(t)
	plan, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(plan.Bounds()), "[0 5 9 13 18]"; got != want {
		t.Fatalf("incumbent bounds %s, want %s", got, want)
	}
	for _, bounds := range [][]int{{0, 9, 5, 13, 18}, {0, 5, 5, 13, 18}, {0, 0, 9, 13, 18}} {
		bad := *plan
		bad.Stages = slices.Clone(plan.Stages)
		for s := range bad.Stages {
			bad.Stages[s].LayerLo, bad.Stages[s].LayerHi = bounds[s], bounds[s+1]
		}
		scale := ones(pl.strat.PP)
		scale[0] = 3
		r, err := pl.ReplanWithScale(&bad, scale)
		if err == nil {
			t.Errorf("bounds %v: replan accepted (adopted %v)", bounds, r.Adopted)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(bounds)) || strings.Contains(msg, "OOM") {
			t.Errorf("bounds %v: error %q does not name them as malformed", bounds, msg)
		}
	}
	again, err := pl.Plan()
	if got, want := planned(t, pl, again, err), planned(t, pl, plan, nil); !bytes.Equal(got, want) {
		t.Errorf("plan after rejected replans differs from the nominal plan:\n got %s\nwant %s", got, want)
	}
}
