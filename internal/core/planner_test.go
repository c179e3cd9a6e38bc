package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/profile"
)

func gptSetup() (model.Config, hardware.Cluster, parallel.Strategy, parallel.Config) {
	return model.GPT3_175B(), hardware.ClusterA(),
		parallel.Strategy{TP: 8, PP: 8, DP: 1},
		parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}
}

func plan(t *testing.T, rec RecomputeMode, part PartitionMode) *Plan {
	t.Helper()
	cfg, cl, strat, train := gptSetup()
	opts := DefaultOptions()
	opts.Recompute = rec
	opts.Partition = part
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAdaptivePlanFitsMemory(t *testing.T) {
	_, cl, _, _ := gptSetup()
	p := plan(t, RecomputeAdaptive, PartitionAdaptive)
	for _, s := range p.Stages {
		if s.Mem.Total() > cl.Device.MemCapacity {
			t.Errorf("stage %d modeled at %d bytes, capacity %d", s.Stage, s.Mem.Total(), cl.Device.MemCapacity)
		}
	}
}

func TestPlanCoversAllLayers(t *testing.T) {
	cfg, _, _, _ := gptSetup()
	p := plan(t, RecomputeAdaptive, PartitionAdaptive)
	L := len(cfg.LayerSequence())
	if p.Stages[0].LayerLo != 0 {
		t.Error("first stage does not start at layer 0")
	}
	if p.Stages[len(p.Stages)-1].LayerHi != L {
		t.Error("last stage does not end at the last layer")
	}
	for i := 1; i < len(p.Stages); i++ {
		if p.Stages[i].LayerLo != p.Stages[i-1].LayerHi {
			t.Errorf("gap between stages %d and %d", i-1, i)
		}
		if p.Stages[i].Layers() <= 0 {
			t.Errorf("stage %d is empty", i)
		}
	}
}

func TestSavedUnitsGrowWithStage(t *testing.T) {
	// §7.4: the saved-unit count increases with the stage id because
	// earlier stages hold more in-flight micro-batches (Table 4).
	p := plan(t, RecomputeAdaptive, PartitionEven)
	first := p.Stages[0].Recompute.SavedUnits
	last := p.Stages[len(p.Stages)-1].Recompute.SavedUnits
	if last <= first {
		t.Errorf("saved units: first stage %d, last stage %d; want growth", first, last)
	}
	// Weak monotonicity with one tolerated dip (the embedding/head layers
	// perturb stage budgets).
	dips := 0
	for i := 1; i < len(p.Stages); i++ {
		if p.Stages[i].Recompute.SavedUnits < p.Stages[i-1].Recompute.SavedUnits {
			dips++
		}
	}
	if dips > 1 {
		t.Errorf("saved-unit counts dip %d times: %v", dips, savedUnits(p))
	}
}

func savedUnits(p *Plan) []int {
	out := make([]int, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Recompute.SavedUnits
	}
	return out
}

func TestAdaPipeShiftsLayersToLaterStages(t *testing.T) {
	// §7.4 / Table 4: AdaPipe moves layers from early (recompute-heavy)
	// stages to later stages.
	p := plan(t, RecomputeAdaptive, PartitionAdaptive)
	first := p.Stages[0].Layers()
	last := p.Stages[len(p.Stages)-1].Layers()
	if last < first {
		t.Errorf("layer counts: first %d, last %d; want the tail at least as long", first, last)
	}
}

func TestModeOrdering(t *testing.T) {
	// Modeled totals: AdaPipe ≤ Even Partitioning ≤ DAPPLE-Full, and
	// adaptive recomputation beats full recomputation.
	ada := plan(t, RecomputeAdaptive, PartitionAdaptive)
	even := plan(t, RecomputeAdaptive, PartitionEven)
	full := plan(t, RecomputeFull, PartitionEven)
	if ada.Total > even.Total+1e-9 {
		t.Errorf("AdaPipe %g worse than Even Partitioning %g", ada.Total, even.Total)
	}
	if even.Total >= full.Total {
		t.Errorf("Even Partitioning %g not better than DAPPLE-Full %g", even.Total, full.Total)
	}
	// The headline claim: >1.2x over full recomputation at seq 16384.
	if speedup := full.Total / ada.Total; speedup < 1.15 {
		t.Errorf("AdaPipe speedup over full recomputation = %.3f, want > 1.15", speedup)
	}
}

func TestBackwardIncludesRecomputation(t *testing.T) {
	full := plan(t, RecomputeFull, PartitionEven)
	ada := plan(t, RecomputeAdaptive, PartitionEven)
	for i := range full.Stages {
		if full.Stages[i].Bwd <= ada.Stages[i].Bwd {
			t.Errorf("stage %d: full-recompute backward %g should exceed adaptive %g",
				i, full.Stages[i].Bwd, ada.Stages[i].Bwd)
		}
	}
}

func TestNoRecomputeOOMAtLongSequence(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	opts := DefaultOptions()
	opts.Recompute = RecomputeNone
	opts.Partition = PartitionEven
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err == nil {
		t.Error("DAPPLE-Non at seq 16384 should exceed 80 GiB (§7.2)")
	}
	// With the limit ignored, the plan is produced for estimation.
	opts.IgnoreMemoryLimit = true
	pl2, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages[0].Mem.Total() <= cl.Device.MemCapacity {
		t.Error("estimated no-recompute stage 0 should exceed capacity")
	}
}

func TestTinyTPOOM(t *testing.T) {
	// Table 3 / §7.3: at (1, 32, 2) AdaPipe's always-saved floor exceeds
	// the budget while DAPPLE-Full still fits.
	cfg := model.GPT3_175B()
	cl := hardware.ClusterA()
	strat := parallel.Strategy{TP: 1, PP: 32, DP: 2}
	train := parallel.Config{GlobalBatch: 128, MicroBatch: 1, SeqLen: 4096}
	opts := DefaultOptions()
	opts.Recompute = RecomputeAdaptive
	opts.Partition = PartitionEven
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err == nil {
		t.Error("AdaPipe at (1,32,2) should OOM")
	}
	opts.Recompute = RecomputeFull
	pl2, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl2.Plan(); err != nil {
		t.Errorf("DAPPLE-Full at (1,32,2) should fit: %v", err)
	}
}

func TestIsomorphismCacheIsLossless(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	for _, disable := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Recompute = RecomputeAdaptive
		opts.Partition = PartitionAdaptive
		opts.DisableIsomorphism = disable
		pl, err := NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			if math.Abs(p.Total-planTotalCache) > 1e-12 {
				t.Errorf("isomorphism cache changed the plan: %g vs %g", p.Total, planTotalCache)
			}
			if runs := pl.StatsSnapshot().KnapsackRuns; runs <= knapsackRunsCache {
				t.Errorf("disabling the cache should increase knapsack runs: %d vs %d", runs, knapsackRunsCache)
			}
		} else {
			planTotalCache = p.Total
			knapsackRunsCache = pl.StatsSnapshot().KnapsackRuns
		}
	}
}

var (
	planTotalCache    float64
	knapsackRunsCache int
)

func TestGCDIsLossless(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	var ref float64
	for _, disable := range []bool{false, true} {
		opts := DefaultOptions()
		opts.DisableGCD = disable
		pl, err := NewPlanner(cfg, cl, strat, train, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			if math.Abs(p.Total-ref) > 1e-12 {
				t.Errorf("GCD reduction changed the plan: %g vs %g", p.Total, ref)
			}
		} else {
			ref = p.Total
		}
	}
}

func TestCostForBoundsChecks(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	pl, err := NewPlanner(cfg, cl, strat, train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	L := pl.LayerCount()
	if L != len(cfg.LayerSequence()) {
		t.Errorf("LayerCount = %d", L)
	}
	if _, _, ok := pl.CostFor(-1, 0, 1); ok {
		t.Error("negative stage accepted")
	}
	if _, _, ok := pl.CostFor(0, 5, 4); ok {
		t.Error("inverted range accepted")
	}
	if _, _, ok := pl.CostFor(0, 0, L); ok {
		t.Error("out-of-range layer accepted")
	}
	if f, b, ok := pl.CostFor(0, 0, 10); !ok || f <= 0 || b <= 0 {
		t.Errorf("CostFor(0,0,10) = %g, %g, %v", f, b, ok)
	}
}

func TestNewPlannerValidation(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	for _, reserve := range []float64{1.5, 1, -0.1, math.NaN()} {
		bad := DefaultOptions()
		bad.MemoryReserve = reserve
		if _, err := NewPlanner(cfg, cl, strat, train, bad); err == nil {
			t.Errorf("reserve %g accepted", reserve)
		}
	}
	if _, err := NewPlanner(cfg, cl, parallel.Strategy{TP: 64, PP: 64, DP: 64}, train, DefaultOptions()); err == nil {
		t.Error("oversized strategy accepted")
	}
	small := train
	small.GlobalBatch = 4 // fewer micro-batches than stages
	if _, err := NewPlanner(cfg, cl, strat, small, DefaultOptions()); err == nil {
		t.Error("n < p accepted")
	}
	badMem := DefaultOptions()
	badMem.Memory.ParamBytes = 0
	if _, err := NewPlanner(cfg, cl, strat, train, badMem); err == nil {
		t.Error("bad memory options accepted")
	}
}

func TestPlanAccessors(t *testing.T) {
	p := plan(t, RecomputeAdaptive, PartitionAdaptive)
	if len(p.Stages) != 8 || len(p.Bounds()) != 9 {
		t.Fatal("accessor lengths wrong")
	}
	if p.CommFwd <= 0 || p.CommBwd <= 0 {
		t.Error("comm times not set")
	}
}

func TestModeStrings(t *testing.T) {
	if RecomputeAdaptive.String() != "adaptive" || RecomputeFull.String() != "full" || RecomputeNone.String() != "none" {
		t.Error("recompute mode strings")
	}
	if PartitionAdaptive.String() != "adaptive" || PartitionEven.String() != "even" {
		t.Error("partition mode strings")
	}
	if !strings.Contains(RecomputeMode(9).String(), "9") || !strings.Contains(PartitionMode(9).String(), "9") {
		t.Error("unknown mode strings")
	}
}

func TestSearchIsFast(t *testing.T) {
	// §5.3: "the entire search process takes only seconds". Budget the
	// full two-level DP for GPT-3 at a few seconds even on slow CI.
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg, cl, strat, train := gptSetup()
	opts := DefaultOptions()
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("search took %v, want seconds", elapsed)
	}
}

func TestGranularityAblation(t *testing.T) {
	// Unit granularity (AdaPipe) must be at least as good as whole-layer
	// granularity (vPipe-style prior work), which must beat full
	// recomputation — the §2.2 motivation for computation units.
	unit := plan(t, RecomputeAdaptive, PartitionEven)
	layer := plan(t, RecomputeLayerLevel, PartitionEven)
	full := plan(t, RecomputeFull, PartitionEven)
	if unit.Total > layer.Total+1e-9 {
		t.Errorf("unit granularity %g worse than layer granularity %g", unit.Total, layer.Total)
	}
	if layer.Total >= full.Total {
		t.Errorf("layer granularity %g not better than full recomputation %g", layer.Total, full.Total)
	}
	// Both fit in memory.
	_, cl, _, _ := gptSetup()
	for _, st := range layer.Stages {
		if st.Mem.Total() > cl.Device.MemCapacity {
			t.Errorf("layer-level stage %d exceeds capacity", st.Stage)
		}
	}
}

func TestExactPartitioningNearOptimality(t *testing.T) {
	// The Pareto-frontier DP is optimal under the cost model; Algorithm 1
	// must land within a fraction of a percent on the real GPT-3 search
	// (validating the paper's "near-optimal" claim).
	heur := plan(t, RecomputeAdaptive, PartitionAdaptive)
	exact := plan(t, RecomputeAdaptive, PartitionExact)
	if exact.Total > heur.Total+1e-9 {
		t.Errorf("exact %g worse than Algorithm 1 %g", exact.Total, heur.Total)
	}
	if gap := heur.Total/exact.Total - 1; gap > 0.01 {
		t.Errorf("Algorithm 1 is %.2f%% off optimal, want < 1%%", gap*100)
	}
}

func TestPlannerWithMeasuredProfile(t *testing.T) {
	// Plan from a measured profile (the paper's deployment path) and check
	// it matches planning from the equivalent analytical profile.
	cfg, cl, strat, train := gptSetup()
	analytic, err := profile.NewWithComm(cfg, cl.Device, strat, train.SeqLen, train.MicroBatch, cl.IntraNodeBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := profile.FromMeasurements(cfg, strat, train.SeqLen, train.MicroBatch, analytic.Measurements(), analytic.CommBytes)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	plA, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	planA, err := plA.Plan()
	if err != nil {
		t.Fatal(err)
	}
	plM, err := NewPlannerWithProfile(cfg, cl, strat, train, measured, opts)
	if err != nil {
		t.Fatal(err)
	}
	planM, err := plM.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Measurements() exports per-unit numbers; the analytical layer costs
	// additionally fold in TP-collective time, so the totals differ by a
	// constant per layer. Compare structure and feasibility, not totals.
	if len(planM.Stages) != len(planA.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(planM.Stages), len(planA.Stages))
	}
	if planM.Total <= 0 {
		t.Error("measured plan has no modeled time")
	}
	for _, s := range planM.Stages {
		if s.Mem.Total() > cl.Device.MemCapacity {
			t.Errorf("measured plan stage %d exceeds capacity", s.Stage)
		}
	}
	if _, err := NewPlannerWithProfile(cfg, cl, strat, train, nil, opts); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestPlannerMicroBatchSizeTwo(t *testing.T) {
	cfg, cl, strat, _ := gptSetup()
	train := parallel.Config{GlobalBatch: 64, MicroBatch: 2, SeqLen: 4096}
	opts := DefaultOptions()
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the micro-batch size doubles the per-micro activation need;
	// compare against micro-batch 1 at the same sequence length.
	train1 := parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 4096}
	pl1, err := NewPlanner(cfg, cl, strat, train1, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pl1.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stages[0].Fwd <= p1.Stages[0].Fwd {
		t.Error("micro-batch 2 should take longer per micro-step")
	}
	if p2.Stages[0].Mem.Total() > cl.Device.MemCapacity {
		t.Error("micro-batch 2 plan exceeds capacity")
	}
}

func TestPlannerSingleStage(t *testing.T) {
	// PP=1 degenerates to pure gradient accumulation; the planner must
	// still search recomputation for the lone stage.
	cfg := model.Tiny(4)
	cl := hardware.ClusterA()
	cl.Nodes = 1
	strat := parallel.Strategy{TP: 1, PP: 1, DP: 1}
	train := parallel.Config{GlobalBatch: 4, MicroBatch: 1, SeqLen: 1024}
	opts := DefaultOptions()
	pl, err := NewPlanner(cfg, cl, strat, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 1 {
		t.Fatalf("%d stages", len(p.Stages))
	}
	if p.Stages[0].LayerLo != 0 || p.Stages[0].LayerHi != pl.LayerCount() {
		t.Error("single stage must cover the whole model")
	}
}

// scribble overwrites every number held in a map or slice reachable from v,
// so a test can tell whether a plan shares its strategy with anything else.
func scribble(v reflect.Value, held bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scribble(v.Elem(), held)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); f.CanSet() {
				scribble(f, held)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			scribble(v.Index(i), true)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e, true)
			v.SetMapIndex(k, e)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if held {
			v.SetInt(999)
		}
	case reflect.Float32, reflect.Float64:
		if held {
			v.SetFloat(999)
		}
	}
}

// TestPlanStrategyIsPrivate overwrites every map and slice reachable from a
// returned plan's stages and requires the next plans — from the same planner,
// and from a second planner of the family reading the same cost store — to
// be byte-identical to the first: a plan owns its strategy and shares nothing
// with the cost table or the store.
func TestPlanStrategyIsPrivate(t *testing.T) {
	store := coststore.New(0)
	planners := [2]*Planner{shapes[0].planner(t), shapes[0].planner(t)}
	for _, pl := range planners {
		if err := pl.SetCostSource(store); err != nil {
			t.Fatal(err)
		}
	}
	first, err := planners[0].Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range append(planners[:], planners[0]) {
		scribble(reflect.ValueOf(first.Stages), false)
		next, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(next); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("plan after overwriting an earlier plan's strategy (err %v):\n%s\nwant\n%s", err, got, want)
		}
		first = next
	}
}
