// chaos demonstrates the fault-tolerance layer end to end in two phases.
//
// Phase A (transient faults): it plans a tiny model, trains it on the live
// 1F1B engine while a deterministic fault injector attacks it (a persistent
// straggler stage, a transient panic, a NaN corruption), survives everything
// through the supervisor's retry-from-snapshot and non-finite guard, spots
// the straggler against a calibrated baseline, replans the partition under
// the degraded cost model, and adopts the new plan mid-run via a
// checkpoint-based rebind — the full inject → survive → replan loop.
//
// Phase B (permanent loss): a separate 3-stage run loses one stage's node for
// good mid-run. The membership model convicts the node after repeated
// failures, the supervisor restores its snapshot, the planner replans the
// surviving 2-node cluster shape (ReplanWithShape), and training state is
// migrated onto the new 2-stage pipeline exactly — the loss curve stays
// bit-identical to a fault-free run.
//
// The process exits non-zero unless both phases survive with exactly one
// adopted replan each and (for phase B) a bit-exact loss curve, so
// `make chaos` doubles as an acceptance gate. -metrics writes the merged
// fault counters of both phases as Prometheus text.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"adapipe"
)

const (
	layers    = 4
	stages    = 2
	micros    = 8
	seq       = 48
	lr        = 1e-3
	calibrate = 3 // fault-free steps used to profile per-stage micro-times
	injected  = 8 // steps under attack
)

func main() {
	seed := flag.Uint64("seed", 1, "fault-injection seed")
	metricsPath := flag.String("metrics", "", "write the merged fault counters of both phases as Prometheus text to this file")
	flag.Parse()

	m := adapipe.Model{
		Name: "chaos-tiny", DecoderLayers: layers, Hidden: 64, Heads: 4,
		KVHeads: 4, FFNHidden: 128, Vocab: 64, BytesPerValue: 8,
	}
	net := adapipe.TrainConfig{
		Layers: layers, Dim: 64, Heads: 4, FFN: 128, Vocab: 64, Seq: seq, Seed: 7,
	}
	strat := adapipe.Strategy{TP: 1, PP: stages, DP: 1}
	tc := adapipe.TrainingConfig{GlobalBatch: micros, MicroBatch: 1, SeqLen: seq}

	capacity, err := adapipe.ToyCapacity(m, strat, tc, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	planner, err := adapipe.NewPlanner(m, adapipe.ToyCluster(stages, capacity), strat, tc, adapipe.ToyOptions())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(adapipe.Describe(plan))

	bounds, saves := adapipe.TrainSpecFromPlan(plan, m)
	pipe, err := adapipe.NewTrainPipeline(net, bounds, saves, lr)
	if err != nil {
		log.Fatal(err)
	}
	pipe.Recorder = adapipe.NewTrainRecorder()
	pipe.Watchdog = 30 * time.Second
	sup, err := adapipe.NewTrainSupervisor(pipe, adapipe.TrainRecovery{
		MaxRetries: 3, Backoff: time.Millisecond, GuardNonFinite: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	corpus := adapipe.NewTrainCorpus(net.Vocab, 1<<14, 7)
	rng := adapipe.NewRNG(7)
	var losses []float64
	step := func(label string) *adapipe.TrainTrace {
		loss, err := sup.Step(corpus.Batches(micros, seq, rng))
		if err != nil {
			log.Fatalf("chaos: %s step failed beyond recovery: %v", label, err)
		}
		losses = append(losses, loss)
		return sup.Pipe.Recorder.Trace()
	}

	// Phase 1 — calibrate: profile the healthy engine's per-stage
	// micro-step times; they become the straggler trigger's baseline.
	predicted := make([]float64, stages)
	for i := 0; i < calibrate; i++ {
		tr := step("calibration")
		for s, v := range tr.Result().MicroStep {
			predicted[s] += v / calibrate
		}
	}

	// Phase 2 — inject: stage 0 becomes a persistent straggler (every op
	// delayed), one transient panic kills an iteration, one corruption
	// poisons an activation. The delay is one calibrated micro-step per op:
	// a micro-step is a forward plus a backward op, so the stage measures
	// about 3x its baseline on any machine — a wall-clock constant would be
	// a different slowdown on every box, and on a slow one falls under the
	// trigger's threshold. Attempts count Accumulate calls, so the targeted
	// faults land inside the injected phase and never re-fire on the retry.
	delay := time.Duration(predicted[0] * float64(time.Second))
	inj, err := adapipe.NewFaultInjector(*seed,
		adapipe.FaultOn(adapipe.FaultStraggler).AtStage(0).WithDelay(delay),
		adapipe.FaultOn(adapipe.FaultPanic).AtStage(1).AtAttempt(calibrate+1),
		adapipe.FaultOn(adapipe.FaultCorrupt).AtStage(0).AtAttempt(calibrate+3).OnPhase(adapipe.FaultPhaseForward),
	)
	if err != nil {
		log.Fatal(err)
	}
	sup.Pipe.Fault = inj

	var adopted *adapipe.Replan
	streaks := make([]int, stages)
	for i := 0; i < injected; i++ {
		tr := step("injected")
		if adopted != nil {
			continue // one-shot: the baseline died with the old partition
		}
		// Straggler trigger: measured/calibrated ratio over the smallest one
		// (a uniform clock mismatch divides out) at >= 1.5 for 2 steps in a row.
		ratios, scales := tr.Result().MicroStep, make([]float64, stages)
		minRatio := math.Inf(1)
		for s := range ratios {
			ratios[s] /= predicted[s]
			minRatio = math.Min(minRatio, ratios[s])
			scales[s] = 1
		}
		worst, slowdown := -1, 0.0
		for s, r := range ratios {
			if rel := r / minRatio; rel < 1.5 {
				streaks[s] = 0
			} else if streaks[s]++; streaks[s] >= 2 && rel > slowdown {
				worst, slowdown = s, rel
			}
		}
		if worst < 0 {
			continue
		}
		fmt.Printf("\nstep %d: stage %d measured %.2fx slower than planned — replanning\n",
			len(losses)-1, worst, slowdown)
		scales[worst] = slowdown
		r, err := planner.ReplanWithScale(plan, scales)
		if err != nil {
			log.Fatal(err)
		}
		if !r.Adopted {
			log.Fatalf("chaos: replan not adopted (old sim %.4fs, new sim %.4fs)",
				r.OldSim.IterTime, r.NewSim.IterTime)
		}
		fmt.Printf("replan adopted: simulated %.4fs -> %.4fs (%.2fx)\n",
			r.OldSim.IterTime, r.NewSim.IterTime, r.Speedup())
		fmt.Print(adapipe.Describe(r.New))
		nb, ns := adapipe.TrainSpecFromPlan(r.New, m)
		next, err := adapipe.NewTrainPipeline(net, nb, ns, lr)
		if err != nil {
			log.Fatal(err)
		}
		if err := sup.Rebind(next); err != nil {
			log.Fatal(err)
		}
		sup.Stats.Replans++
		adopted = r
	}

	counters := sup.Counters()
	fmt.Printf("\nlosses: first %.4f last %.4f over %d steps\n", losses[0], losses[len(losses)-1], len(losses))
	fmt.Printf("fault counters: %+v\n\n", counters)
	fmt.Print(adapipe.RenderProm(adapipe.FaultMetrics("adapipe_fault", counters)))

	// Acceptance: survived, healed, exactly one adopted replan that the
	// simulator says is faster.
	if adopted == nil {
		log.Fatal("chaos: straggler was never detected; no replan happened")
	}
	if counters.Replans != 1 {
		log.Fatalf("chaos: %d replans, want exactly 1", counters.Replans)
	}
	if counters.Panics == 0 || counters.Corruptions == 0 || counters.Stragglers == 0 {
		log.Fatalf("chaos: injection incomplete: %+v", counters)
	}
	if counters.Retries == 0 {
		log.Fatalf("chaos: nothing was retried: %+v", counters)
	}
	var nonFinite int64
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			nonFinite++
		}
	}
	if nonFinite != counters.SkippedSteps {
		log.Fatalf("chaos: %d non-finite losses vs %d skipped steps", nonFinite, counters.SkippedSteps)
	}
	if len(losses) != calibrate+injected {
		log.Fatalf("chaos: %d losses, want %d", len(losses), calibrate+injected)
	}
	fmt.Println("\nchaos: survived all injected faults; one replan adopted")

	elastic := elasticPhase(m, net)
	total := counters
	total.Add(elastic)
	if *metricsPath != "" {
		text := adapipe.RenderProm(adapipe.FaultMetrics("adapipe_fault", total))
		if err := os.WriteFile(*metricsPath, []byte(text), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote merged fault metrics to %s\n", *metricsPath)
	}
}

// elasticPhase is phase B: permanent node loss and exact elastic recovery.
// A 3-stage pipeline (one toy node per stage) loses stage 1's node for good
// at attempt 3. The supervisor's membership model convicts it after two
// consecutive failures, the planner replans the surviving 2-node shape, and
// training resumes on the rebuilt 2-stage pipeline with a bit-identical loss
// curve. Returns the phase's fault counters; any violation exits non-zero.
func elasticPhase(m adapipe.Model, net adapipe.TrainConfig) adapipe.FaultCounters {
	const (
		estages = 3
		esteps  = 6
	)
	fmt.Println("\n--- elastic phase: permanent node loss ---")
	strat := adapipe.Strategy{TP: 1, PP: estages, DP: 1}
	tc := adapipe.TrainingConfig{GlobalBatch: micros, MicroBatch: 1, SeqLen: seq}
	// Size the device for the post-loss worst case: after the shrink, two
	// stages must hold what three held.
	capacity, err := adapipe.ToyCapacity(m, adapipe.Strategy{TP: 1, PP: estages - 1, DP: 1}, tc, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	cluster := elasticCluster(estages, capacity)
	planner, err := adapipe.NewPlanner(m, cluster, strat, tc, adapipe.ToyOptions())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Plan()
	if err != nil {
		log.Fatal(err)
	}
	bounds, saves := adapipe.TrainSpecFromPlan(plan, m)

	runLosses := func(sup *adapipe.TrainSupervisor) []float64 {
		corpus := adapipe.NewTrainCorpus(net.Vocab, 1<<14, 13)
		rng := adapipe.NewRNG(13)
		out := make([]float64, 0, esteps)
		for i := 0; i < esteps; i++ {
			l, err := sup.Step(corpus.Batches(micros, seq, rng))
			if err != nil {
				log.Fatalf("chaos: elastic step %d failed beyond recovery: %v", i, err)
			}
			out = append(out, l)
		}
		return out
	}

	// Fault-free reference: losses are partition-invariant, so this is the
	// bit-exact target on both sides of the resize.
	cleanPipe, err := adapipe.NewTrainPipeline(net, bounds, saves, lr)
	if err != nil {
		log.Fatal(err)
	}
	cleanSup, err := adapipe.NewTrainSupervisor(cleanPipe, adapipe.TrainRecovery{})
	if err != nil {
		log.Fatal(err)
	}
	clean := runLosses(cleanSup)

	pipe, err := adapipe.NewTrainPipeline(net, bounds, saves, lr)
	if err != nil {
		log.Fatal(err)
	}
	pipe.Watchdog = 30 * time.Second
	pipe.Fault, err = adapipe.NewFaultInjector(1,
		adapipe.FaultOn(adapipe.FaultNodeLoss).AtStage(1).AtAttempt(3))
	if err != nil {
		log.Fatal(err)
	}
	sup, err := adapipe.NewTrainSupervisor(pipe, adapipe.TrainRecovery{MaxRetries: 1, Backoff: time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	health, err := adapipe.NewMembership(estages, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	sup.Elastic = adapipe.TrainElastic{
		Health: health,
		Rebuild: func(downStage int) (*adapipe.TrainPipeline, error) {
			shrunk, err := cluster.Resize(estages - 1)
			if err != nil {
				return nil, err
			}
			r, err := planner.ReplanWithShape(shrunk)
			if err != nil {
				return nil, err
			}
			fmt.Printf("stage %d lost its node: replanned %d-node cluster at PP=%d "+
				"(simulated %.4fs/iter, %d iso-cache entries reused)\n",
				downStage, shrunk.Nodes, r.Strategy.PP, r.Sim.IterTime, r.ReusedCostEntries)
			fmt.Print(adapipe.Describe(r.Plan))
			if r.Strategy.PP != estages-1 {
				return nil, fmt.Errorf("chaos: replanned PP=%d on a %d-node cluster, want %d",
					r.Strategy.PP, shrunk.Nodes, estages-1)
			}
			nb, ns := adapipe.TrainSpecFromPlan(r.Plan, m)
			rebuilt := net
			rebuilt.Seed = 77 // the state handoff alone must determine the result
			next, err := adapipe.NewTrainPipeline(rebuilt, nb, ns, lr)
			if err != nil {
				return nil, err
			}
			next.Fault, err = adapipe.NewFaultInjector(1) // the old rules died with the node
			return next, err
		},
	}
	got := runLosses(sup)

	for i := range clean {
		if got[i] != clean[i] {
			log.Fatalf("chaos: elastic step %d loss %v != fault-free loss %v; recovery was not exact",
				i, got[i], clean[i])
		}
	}
	ec := sup.Counters()
	fmt.Printf("elastic counters: %+v\n", ec)
	if ec.Resizes != 1 || ec.LossesDetected != 1 {
		log.Fatalf("chaos: %d resizes, %d losses detected; want exactly 1 of each", ec.Resizes, ec.LossesDetected)
	}
	if ec.NodeLosses != 2 {
		log.Fatalf("chaos: %d node-loss faults, want 2 (original + the retry that convicts)", ec.NodeLosses)
	}
	if health.Stages() != estages-1 || health.LostNodes() != 1 {
		log.Fatalf("chaos: health model at %d stages with %d lost nodes", health.Stages(), health.LostNodes())
	}
	fmt.Printf("chaos: node loss survived; %d steps bit-identical across one elastic resize (%d -> %d stages)\n",
		esteps, estages, estages-1)
	return ec
}

// elasticCluster is a toy cluster with one small accelerator per node, so a
// node loss maps 1:1 onto a pipeline-stage loss.
func elasticCluster(nodes int, capacity int64) adapipe.Cluster {
	c := adapipe.ToyCluster(1, capacity)
	c.Name = "elastic-toy"
	c.Nodes = nodes
	return c
}
