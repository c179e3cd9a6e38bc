package adapipe_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"adapipe"
	"adapipe/internal/baseline"
)

func TestPlanAdaPipeQuickstart(t *testing.T) {
	plan, err := adapipe.PlanAdaPipe(
		adapipe.GPT3(),
		adapipe.ClusterA(),
		adapipe.Strategy{TP: 8, PP: 8, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 8 {
		t.Fatalf("%d stages", len(plan.Stages))
	}
	res, err := adapipe.Simulate(plan, adapipe.Sched1F1B, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Error("zero iteration time")
	}
	if res.MaxPeakMem() > adapipe.ClusterA().Device.MemCapacity {
		t.Error("plan exceeds capacity")
	}
	desc := adapipe.Describe(plan)
	for _, want := range []string{"GPT-3 175B", "stage", "GiB", "(8, 8, 1)"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestSimulateAllSchedules(t *testing.T) {
	plan, err := adapipe.PlanAdaPipe(
		adapipe.TinyModel(8),
		adapipe.ClusterA(),
		adapipe.Strategy{TP: 1, PP: 4, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 16, MicroBatch: 1, SeqLen: 1024},
	)
	if err != nil {
		t.Fatal(err)
	}
	times := map[adapipe.ScheduleKind]float64{}
	for _, kind := range []adapipe.ScheduleKind{adapipe.Sched1F1B, adapipe.SchedGPipe, adapipe.SchedChimera, adapipe.SchedChimeraD} {
		res, err := adapipe.Simulate(plan, kind, true)
		if err != nil {
			t.Fatalf("kind %d: %v", int(kind), err)
		}
		times[kind] = res.IterTime
		if g := adapipe.Gantt(res, 4, 60); !strings.Contains(g, "dev  0") {
			t.Error("gantt malformed")
		}
		data, err := adapipe.ChromeTrace(res)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Error("chrome trace is not valid JSON")
		}
	}
	if times[adapipe.SchedChimera] <= times[adapipe.Sched1F1B] {
		t.Error("Chimera should lose to 1F1B at n >> p")
	}
}

func TestBestAndMethods(t *testing.T) {
	if len(adapipe.Methods()) != 8 {
		t.Fatal("want 8 methods")
	}
	m, err := adapipe.MethodByName("AdaPipe")
	if err != nil {
		t.Fatal(err)
	}
	cl := adapipe.ClusterA()
	cl.Nodes = 1
	best, all := adapipe.Best(m, adapipe.TinyModel(8), cl, 8,
		adapipe.TrainingConfig{GlobalBatch: 16, MicroBatch: 1, SeqLen: 1024}, adapipe.DefaultOptions())
	if !best.Feasible() {
		t.Fatal("no feasible strategy")
	}
	if len(all) == 0 {
		t.Fatal("no strategies evaluated")
	}
	if len(adapipe.EnumerateStrategies(8)) == 0 {
		t.Fatal("no strategies enumerated")
	}
}

func TestTrainFacade(t *testing.T) {
	res, err := adapipe.Train(adapipe.TrainRunConfig{
		Net:    adapipe.TrainConfig{Layers: 2, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 1},
		Bounds: []int{0, 3, 6},
		Saves: [][]adapipe.SaveSpec{
			{adapipe.SaveNone(), adapipe.SaveNone()},
			{adapipe.SaveAll(), adapipe.SaveAll()},
		},
		Steps: 3, MicroBatches: 4, LR: 1e-3, DataSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 3 {
		t.Fatalf("%d losses", len(res.Losses))
	}
}

func TestTrainSpecFromPlan(t *testing.T) {
	m := adapipe.TinyModel(4)
	plan, err := adapipe.PlanAdaPipe(m, adapipe.ClusterA(),
		adapipe.Strategy{TP: 1, PP: 2, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 8, MicroBatch: 1, SeqLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	bounds, saves, err := adapipe.TrainSpecFromPlan(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("bounds %v", bounds)
	}
	if bounds[0] != 0 || bounds[2] != len(m.LayerSequence()) {
		t.Errorf("bounds %v do not span the sequence", bounds)
	}
	if len(saves) != 2 {
		t.Fatalf("%d save stages", len(saves))
	}
	// A plan for a larger model is refused, not sliced past m's sequence.
	small := adapipe.TinyModel(2)
	if _, _, err := adapipe.TrainSpecFromPlan(plan, small); err == nil {
		t.Errorf("a plan over %d layers converted for a %d-layer model", len(m.LayerSequence()), len(small.LayerSequence()))
	}
}

func TestEvaluateOOM(t *testing.T) {
	m, _ := adapipe.MethodByName("DAPPLE-Non")
	o := adapipe.Evaluate(m, adapipe.GPT3(), adapipe.ClusterA(),
		adapipe.Strategy{TP: 8, PP: 8, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384},
		adapipe.DefaultOptions())
	if !o.OOM {
		t.Error("expected OOM")
	}
}

func TestDescribeSaves(t *testing.T) {
	plan, err := adapipe.PlanAdaPipe(adapipe.TinyModel(4), adapipe.ClusterA(),
		adapipe.Strategy{TP: 1, PP: 2, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 8, MicroBatch: 1, SeqLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	out := adapipe.DescribeSaves(plan)
	for _, want := range []string{"Attention/QProj", "FFN/FFNUp", "unit"} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribeSaves missing %q:\n%s", want, out)
		}
	}
}

func TestTrainDataParallelFacade(t *testing.T) {
	rc := adapipe.TrainRunConfig{
		Net:    adapipe.TrainConfig{Layers: 1, Dim: 16, Heads: 2, FFN: 32, Vocab: 20, Seq: 12, Seed: 1},
		Bounds: []int{0, 4},
		Steps:  2, MicroBatches: 4, LR: 1e-3, DataSeed: 1,
	}
	res, err := adapipe.TrainDataParallel(2, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 2 {
		t.Fatalf("%d losses", len(res.Losses))
	}
}

func TestMemoryCSVFacade(t *testing.T) {
	plan, err := adapipe.PlanAdaPipe(adapipe.TinyModel(4), adapipe.ClusterA(),
		adapipe.Strategy{TP: 1, PP: 2, DP: 1},
		adapipe.TrainingConfig{GlobalBatch: 8, MicroBatch: 1, SeqLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	res, err := adapipe.SimulateWithOptions(plan, adapipe.Sched1F1B, adapipe.SimOptions{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	csv := adapipe.MemoryCSV(res)
	if !strings.HasPrefix(csv, "device,time_sec,bytes\n") {
		t.Errorf("csv header wrong: %q", csv[:40])
	}
	if len(res.MemTimeline) != 2 {
		t.Errorf("%d curves", len(res.MemTimeline))
	}
}

// TestContextAlreadyCancelled: a pre-cancelled ctx surfaces context.Canceled
// from every context-taking entry point above the planner — as the error of
// PlanContext, and as Outcome.Err of a simulation.
func TestContextAlreadyCancelled(t *testing.T) {
	req, err := adapipe.ParsePlanRequest([]byte(`{"model":"tiny","tp":1,"pp":4,"dp":1,"seq_len":2048,"global_batch":16}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"PlanContext", func(ctx context.Context) error {
			_, err := adapipe.PlanContext(ctx, req)
			return err
		}},
		{"SimulateContext", func(ctx context.Context) error {
			o, err := adapipe.SimulateContext(ctx, req)
			if err != nil {
				t.Fatalf("valid request rejected: %v", err)
			}
			return o.Err
		}},
		{"baseline.EvaluateContext", func(ctx context.Context) error {
			return baseline.EvaluateContext(ctx, res.Method, res.Model, res.Cluster, res.Strategy, res.Training, res.Options).Err
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		if err := tc.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", tc.name, err)
		}
	}
}
