package baseline

import (
	"testing"

	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

func gptSetup() (model.Config, hardware.Cluster, parallel.Strategy, parallel.Config) {
	return model.GPT3_175B(), hardware.ClusterA(),
		parallel.Strategy{TP: 8, PP: 8, DP: 1},
		parallel.Config{GlobalBatch: 32, MicroBatch: 1, SeqLen: 16384}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 8 {
		t.Fatalf("got %d methods, want 8", len(ms))
	}
	want := []string{"DAPPLE-Full", "DAPPLE-Non", "Chimera-Full", "Chimera-Non",
		"ChimeraD-Full", "ChimeraD-Non", "Even Partitioning", "AdaPipe"}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Errorf("method %d = %q, want %q", i, m.Name, want[i])
		}
	}
	if len(ClusterBMethods()) != 4 {
		t.Error("cluster B runs four methods")
	}
}

// TestScheduleKindTable covers the one schedule table: every kind builds a
// schedule the validator accepts, String is the wire label /v1/simulate
// reports, and a kind outside the table is an error, not a panic.
func TestScheduleKindTable(t *testing.T) {
	labels := map[ScheduleKind]string{
		Sched1F1B: "1f1b", SchedGPipe: "gpipe", SchedChimera: "chimera", SchedChimeraD: "chimerad",
	}
	if len(labels) != len(scheduleTable) {
		t.Fatalf("table has %d kinds, test knows %d", len(scheduleTable), len(labels))
	}
	for k, want := range labels {
		if got := k.String(); got != want {
			t.Errorf("kind %d label %q, want %q", int(k), got, want)
		}
		sched, err := k.Build(4, 8)
		if err != nil {
			t.Errorf("%s: Build(4, 8): %v", k, err)
			continue
		}
		if err := sched.Validate(); err != nil {
			t.Errorf("%s: built schedule fails validation: %v", k, err)
		}
	}
	for _, k := range []ScheduleKind{-1, ScheduleKind(len(scheduleTable))} {
		if _, err := k.Build(4, 8); err == nil {
			t.Errorf("kind %d built a schedule", int(k))
		}
		if got := k.String(); got != "unknown" {
			t.Errorf("kind %d label %q, want unknown", int(k), got)
		}
	}
	for _, m := range Methods() {
		if !m.Schedule.known() {
			t.Errorf("method %s names schedule kind %d outside the table", m.Name, int(m.Schedule))
		}
	}
}

func TestMethodByName(t *testing.T) {
	m, err := MethodByName("AdaPipe")
	if err != nil {
		t.Fatal(err)
	}
	if m.Recompute != core.RecomputeAdaptive || m.Partition != core.PartitionAdaptive {
		t.Errorf("AdaPipe method misconfigured: %+v", m)
	}
	if !m.Adaptive() {
		t.Error("AdaPipe must be adaptive")
	}
	full, _ := MethodByName("DAPPLE-Full")
	if full.Adaptive() {
		t.Error("DAPPLE-Full must not be adaptive")
	}
	if _, err := MethodByName("nope"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestEvaluateAdaPipeFeasible(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	m, _ := MethodByName("AdaPipe")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	if !o.Feasible() {
		t.Fatalf("AdaPipe infeasible: OOM=%v err=%v", o.OOM, o.Err)
	}
	if o.IterTime <= 0 {
		t.Error("zero iteration time")
	}
	if o.Sim.MaxPeakMem() > cl.Device.MemCapacity {
		t.Error("simulated peak exceeds capacity for an adaptive method")
	}
	if len(o.Sim.PeakMem) != strat.PP {
		t.Errorf("peak memory for %d devices, want %d", len(o.Sim.PeakMem), strat.PP)
	}
}

func TestEvaluateOOMBaselineStillEstimates(t *testing.T) {
	// DAPPLE-Non at seq 16384 is OOM but must still report per-stage
	// peaks (Figure 8's estimated lines).
	cfg, cl, strat, train := gptSetup()
	m, _ := MethodByName("DAPPLE-Non")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	if !o.OOM {
		t.Fatal("DAPPLE-Non at seq 16384 should be OOM")
	}
	if o.Plan == nil {
		t.Fatal("OOM baseline should still carry a plan for estimation")
	}
	if o.Sim.MaxPeakMem() <= cl.Device.MemCapacity {
		t.Error("estimated peak should exceed capacity")
	}
	if o.Feasible() {
		t.Error("OOM outcome reported feasible")
	}
}

func TestEvaluateSimAgreesWithModel(t *testing.T) {
	// The simulator executes the plan's own costs under 1F1B, so its
	// makespan must be close to (and never better than) the §5.1 model
	// plus communication.
	cfg, cl, strat, train := gptSetup()
	m, _ := MethodByName("Even Partitioning")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	if !o.Feasible() {
		t.Fatal("infeasible")
	}
	if o.IterTime < o.Plan.Total {
		t.Errorf("simulated %g beats the comm-free model %g", o.IterTime, o.Plan.Total)
	}
	if o.IterTime > o.Plan.Total*1.1 {
		t.Errorf("simulated %g deviates more than 10%% from the model %g", o.IterTime, o.Plan.Total)
	}
}

func TestStageCosts(t *testing.T) {
	cfg, cl, strat, train := gptSetup()
	m, _ := MethodByName("AdaPipe")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	costs := StageCosts(o.Plan)
	if len(costs) != strat.PP {
		t.Fatalf("%d costs", len(costs))
	}
	for i, c := range costs {
		st := o.Plan.Stages[i]
		if c.Fwd != st.Fwd || c.Bwd != st.Bwd {
			t.Errorf("stage %d time mismatch", i)
		}
		if c.Static != st.Mem.Static() || c.SavedPerMicro != st.Mem.SavedPerMicro {
			t.Errorf("stage %d memory mismatch", i)
		}
		if c.StaticSharded != st.Mem.Optimizer || c.StaticOverhead != st.Mem.Overhead {
			t.Errorf("stage %d sharded/overhead mismatch", i)
		}
	}
}

func TestBestPicksFastestFeasible(t *testing.T) {
	cfg := model.Tiny(8)
	cl := hardware.ClusterA()
	cl.Nodes = 1 // 8 devices
	train := parallel.Config{GlobalBatch: 16, MicroBatch: 1, SeqLen: 1024}
	m, _ := MethodByName("AdaPipe")
	best, all := Best(m, cfg, cl, 8, train, core.DefaultOptions())
	if !best.Feasible() {
		t.Fatal("no feasible strategy for a tiny model on 8 devices")
	}
	for _, o := range all {
		if o.Feasible() && o.IterTime < best.IterTime {
			t.Errorf("Best missed %s at %g (picked %s at %g)", o.Strategy, o.IterTime, best.Strategy, best.IterTime)
		}
	}
}

func TestChimeraScheduleDivisibility(t *testing.T) {
	// Chimera requires n divisible by p; Evaluate must surface that as an
	// error, not a crash.
	cfg := model.Tiny(8)
	cl := hardware.ClusterA()
	cl.Nodes = 1
	strat := parallel.Strategy{TP: 1, PP: 4, DP: 2}
	train := parallel.Config{GlobalBatch: 10, MicroBatch: 1, SeqLen: 512} // n=5, not divisible by 4
	m, _ := MethodByName("Chimera-Full")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	if o.Err == nil {
		t.Error("expected a schedule divisibility error")
	}
}

func TestAdaptiveOOMHasNoPlan(t *testing.T) {
	cfg, cl, _, _ := gptSetup()
	strat := parallel.Strategy{TP: 1, PP: 32, DP: 2}
	train := parallel.Config{GlobalBatch: 128, MicroBatch: 1, SeqLen: 4096}
	m, _ := MethodByName("AdaPipe")
	o := Evaluate(m, cfg, cl, strat, train, core.DefaultOptions())
	if !o.OOM || o.Plan != nil {
		t.Errorf("adaptive OOM should yield OOM=true, nil plan; got OOM=%v plan=%v", o.OOM, o.Plan != nil)
	}
}
