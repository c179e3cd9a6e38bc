package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/memory"
	"adapipe/internal/model"
	"adapipe/internal/partition"
	"adapipe/internal/recompute"
	"adapipe/internal/request"
	"adapipe/internal/schedule"
	"adapipe/internal/serve"
	"adapipe/internal/sim"
)

// The traced run of a daemon workload has three parts. A short closed-loop
// run against the real daemon gives the /metrics deltas under the true load.
// Then the first operations of the script are replayed in-process, once
// untraced and once with spans, which gives the per-call times, the planner's
// own counters and the tracing overhead. Last, probes time the public
// functions of the layers the replay showed the workload uses.

// replayRate is how many scripted operations per second of --seconds the
// replay covers. The count is fixed by the run length, not by a clock, so
// that the planner's counters repeat exactly from run to run.
var replayRate = map[string]float64{wlPlanCold: 2, wlPlanHot: 1000, wlReplanSweep: 20}

// traceFileOps bounds the operations written to the Chrome trace file; a
// single GPT-3 search alone is some eight thousand spans.
const traceFileOps = 16

type replayResult struct {
	ops    int
	failed int
	errs   []string
	wall   time.Duration
	counts replicaCounts
	store  *coststore.Store
	// searched lists the first distinct requests the replay searched cold;
	// the probes run on them.
	searched []request.PlanRequest
}

// replay answers the first n operations of the workload's script on a fresh
// replica, lanes in turn, checking every reply. The replica is first brought
// to the state the daemon's set-up leaves (untraced).
func replay(ctx context.Context, workload string, hot *hotSet, seed uint64, tr *tracer, n int, limit time.Duration) (*replayResult, error) {
	r := newReplica(nil, tr == nil)
	var exp *hotExpect
	switch workload {
	case wlPlanHot:
		exp = &hotExpect{bodies: make([][]byte, len(hot.reqs)), modeled: make([]float64, len(hot.reqs))}
		for i, q := range hot.reqs {
			rp, err := r.do(ctx, op{kind: opPlan, body: mustJSON(q), req: q, hot: -1})
			if err != nil {
				return nil, fmt.Errorf("replica set-up: %w", err)
			}
			exp.bodies[i] = rp.body
			if exp.modeled[i], err = checkReply(op{kind: opPlan, req: q, hot: -1}, rp, nil, false); err != nil {
				return nil, fmt.Errorf("replica set-up: %w", err)
			}
		}
	case wlReplanSweep:
		for _, q := range trainingRuns {
			scale := make([]float64, q.PP)
			for i := range scale {
				scale[i] = 1
			}
			rq := request.ReplanRequest{Version: request.Version, Request: q, Scale: scale}
			for _, o := range []op{{kind: opPlan, body: mustJSON(q)}, {kind: opReplan, body: mustJSON(rq)}} {
				if _, err := r.do(ctx, o); err != nil {
					return nil, fmt.Errorf("replica set-up: %w", err)
				}
			}
		}
	}
	r.c = replicaCounts{}
	r.tr = tr
	scripts := newScripts(workload, seed, hot)
	res := &replayResult{store: r.store}
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil && time.Since(start) < limit; i++ {
		o, ok := scripts[i%lanes].next()
		if !ok {
			break
		}
		res.ops++
		rp, err := r.do(ctx, o)
		if err == nil {
			_, err = checkReply(o, rp, exp, workload == wlReplanSweep)
		}
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, fmt.Sprintf("replay op %d: %v", i, err))
			}
		}
	}
	res.wall = time.Since(start)
	res.counts = r.c
	res.searched = r.searched
	return res, nil
}

// ledger is a per-layer metric map; a layer the workload does not use
// reports 0.
type ledger map[string]float64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanOf is the mean duration per call of one span name.
func meanOf(totals map[string]*spanTotal, key string) time.Duration {
	st := totals[key]
	if st == nil || st.Count == 0 {
		return 0
	}
	return st.Total / time.Duration(st.Count)
}

// traceResult is what a traced run reports.
type traceResult struct {
	ledger    ledger
	attempted int
	failed    int
	errs      []string
	traceFile string
}

// traceDaemon runs the traced pass of a daemon workload.
func (h *harness) traceDaemon(ctx context.Context, workload string) (*traceResult, error) {
	out := &traceResult{ledger: ledger{}}
	seed, seconds := h.seed, h.seconds
	budget := time.Duration(seconds * float64(time.Second))

	// Part 1: /metrics deltas under the real closed-loop load.
	run, err := h.runDaemon(ctx, workload, budget*3/10, 1, nil)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.errs = run.load.attempted, run.load.failed, run.load.errs
	for k, v := range run.serveLedger() {
		out.ledger[k] = v
	}
	out.ledger["baseline.adapipe_speedup_x"] = run.speedup
	daemonP50 := quantile(run.load.ms[primaryKind(workload)], 0.5)

	// Part 2: the same operations untraced, then traced.
	n := int(math.Ceil(replayRate[workload] * seconds))
	plain, err := replay(ctx, workload, h.hotSet(), seed, nil, n, budget/4)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replay(ctx, workload, h.hotSet(), seed, tr, plain.ops, budget/2)
	if err != nil {
		return nil, err
	}
	for _, rr := range []*replayResult{plain, traced} {
		out.attempted += rr.ops
		out.failed += rr.failed
		out.errs = append(out.errs, rr.errs...)
	}
	var fileSpans []span
	for _, s := range tr.spans {
		if s.Op < traceFileOps {
			fileSpans = append(fileSpans, s)
		}
	}
	if out.traceFile, err = writeChrome(h.outDir, workload, fileSpans); err != nil {
		return nil, err
	}
	totals := selfTimes(tr.spans)
	l := out.ledger
	l["request.parse_us"] = us(meanOf(totals, "request.parse"))
	l["request.hash_us"] = us(meanOf(totals, "request.hash"))
	l["request.encode_us"] = us(meanOf(totals, "request.encode"))
	l["request.sweep_expand_us"] = us(meanOf(totals, "request.sweep_expand"))
	var requestCalls int
	var tracedWall time.Duration
	for key, st := range totals {
		switch {
		case st.Layer == "request":
			requestCalls += st.Count
		case strings.HasPrefix(key, "harness.op_"):
			tracedWall += st.Total
		}
	}
	l["request.calls"] = ratio(float64(requestCalls), float64(traced.ops))
	l["core.construct_ms"] = ms(meanOf(totals, "core.construct"))
	l["core.search_ms"] = ms(meanOf(totals, "core.search"))
	l["core.serialize_ms"] = ms(meanOf(totals, "core.serialize"))
	l["core.replan_warm_ms"] = ms(meanOf(totals, "core.replan"))
	l["baseline.evaluate_ms"] = ms(meanOf(totals, "baseline.evaluate"))
	l["serve.sweep_point_ms"] = ms(meanOf(totals, "harness.sweep_point"))
	if st := totals["core.search"]; st != nil {
		l["core.search_wall_share"] = ratio(float64(st.Total), float64(tracedWall))
	}
	// Counters come from the untraced pass: same operations, no span cost.
	c := plain.counts
	searches := float64(c.searches)
	l["core.knapsack_runs_per_search"] = ratio(float64(c.search.KnapsackRuns), searches)
	l["core.cost_evals_per_search"] = ratio(float64(c.search.CostEvaluations), searches)
	l["core.iso_hit_ratio"] = ratio(float64(c.search.CacheHits), float64(c.search.CostEvaluations))
	l["core.partition_cells_per_search"] = ratio(float64(c.search.PartitionCells), searches)
	l["core.allocs_per_search"] = ratio(float64(c.mallocs), searches)
	l["core.alloc_kb_per_search"] = ratio(float64(c.allocBytes)/1024, searches)
	l["core.warm_start_cells"] = ratio(float64(c.warmCells), float64(c.replans))
	l["core.invalidated_iso_classes"] = ratio(float64(c.invalIso), float64(c.replans))
	l["coststore.lookup_hit_us"] = ratio(us(c.storeHitTime), float64(c.storeHits))
	l["coststore.solve_time_share"] = ratio(float64(c.computeTime), float64(c.storeTime))
	l["harness.trace_overhead_pct"] = 100 * (ratio(float64(traced.wall), float64(plain.wall)) - 1)

	// Part 3: probes of the layers this workload reaches.
	usesCore := c.searches > 0
	usesSim := totals["baseline.evaluate"] != nil || totals["core.replan"] != nil
	if usesCore {
		if err := probeSearch(ctx, l, plain.searched); err != nil {
			return nil, err
		}
	}
	if usesSim {
		if err := probeSim(ctx, l, trainingRuns[0]); err != nil {
			return nil, err
		}
	}
	l["recompute.knapsack_ms_per_search"] = l["recompute.solve_us"] * l["core.knapsack_runs_per_search"] / 1000
	if usesCore {
		l["core.search_residual_ms"] = l["core.search_ms"] - l["recompute.knapsack_ms_per_search"] - l["partition.solve_ms"]
	}
	switch workload {
	case wlPlanHot:
		hit, err := probeHandlerHit(h.hotSet().reqs[0])
		if err != nil {
			return nil, err
		}
		l["serve.handler_hit_us"] = hit
		l["serve.http_overhead_us"] = daemonP50*1000 - hit
	case wlReplanSweep:
		if err := probeReplanCold(ctx, l, trainingRuns[0]); err != nil {
			return nil, err
		}
		if err := probeSnapshot(l, traced.store, h.scratch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probePlanner builds a planner for req at the given worker count on a
// private default-sized store and runs its cold search.
func probePlanner(ctx context.Context, req request.PlanRequest, workers int) (*core.Planner, *core.Plan, error) {
	pl, err := req.NewPlanner(workers)
	if err != nil {
		return nil, nil, err
	}
	if err := pl.SetCostSource(coststore.New(4096)); err != nil {
		return nil, nil, err
	}
	plan, err := pl.PlanContext(ctx)
	return pl, plan, err
}

const probeReps = 3

// medianOf times f probeReps times and returns the median duration.
func medianOf(f func() error) (time.Duration, error) {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs)), nil
}

// knapsackSamples is how many (stage, range) classes the recompute probe
// draws per probed search.
const knapsackSamples = 96

// probeSearch times the recompute and partition layers the way the searches
// of reqs use them, and the first request's whole search at one worker
// against all cores. Each value is the mean over reqs.
func probeSearch(ctx context.Context, l ledger, reqs []request.PlanRequest) error {
	var solveUS, solveMS, incrMS []float64
	var cells, before, after int64
	var solves int
	for _, req := range reqs {
		pl, _, err := probePlanner(ctx, req, 1)
		if err != nil {
			return err
		}
		cfg, err := req.ModelConfig()
		if err != nil {
			return err
		}
		cl, err := req.ClusterConfig()
		if err != nil {
			return err
		}
		opts := core.DefaultOptions()
		seq := cfg.LayerSequence()
		prof := pl.Profile()
		L, p, n := pl.LayerCount(), req.PP, pl.MicroBatches()

		// recompute: a search solves one knapsack per (stage, range-shape)
		// class, so the probe draws classes uniformly over stage and range
		// length and poses each knapsack exactly as the search does — groups
		// rebuilt from the public profile, capacity re-derived from the
		// public memory model.
		solver := recompute.NewSolver()
		budgetBytes := int64(float64(cl.Device.MemCapacity) * (1 - opts.MemoryReserve))
		r := newRNG(1, 400)
		for k := 0; k < knapsackSamples; k++ {
			st := r.intn(p)
			length := 1 + r.intn(L-p+1)
			// Stage st starts no earlier than layer st and leaves one layer
			// for each later stage.
			lo := st + r.intn(L-(p-1-st)-length-st+1)
			layers := seq[lo : lo+length]
			static := memory.StageStatic(cfg, prof, req.Strategy(), layers, opts.Memory)
			var input int64
			if layers[0].Kind != model.Embedding {
				input = prof.CommBytes
			}
			capacity := (budgetBytes-static.Static())/int64(memory.InFlight(p, st)) - input
			if budgetBytes < static.Static() || capacity < 0 {
				continue // the search rejects this range before any knapsack
			}
			counts := map[model.LayerKind]int{}
			for _, ly := range layers {
				counts[ly.Kind]++
			}
			var groups []recompute.Group
			for _, kind := range []model.LayerKind{model.Embedding, model.Attention, model.FFN, model.Head} {
				for _, uc := range prof.Layers[kind].Units {
					if counts[kind] > 0 {
						groups = append(groups, recompute.Group{
							Key: kind.String() + "/" + uc.Unit.Kind.String(), FwdTime: uc.FwdTime,
							Bytes: uc.SavedBytes, Count: counts[kind], AlwaysSaved: uc.Unit.AlwaysSaved,
						})
					}
				}
			}
			recompute.SortGroups(groups)
			quantum := int64(1) << 20
			for capacity/quantum > opts.MaxDPStates {
				quantum *= 2
			}
			var sol recompute.Solution
			took, err := medianOf(func() error {
				sol = solver.Optimize(groups, capacity, recompute.Options{Quantum: quantum})
				return nil
			})
			if err != nil {
				return err
			}
			solveUS = append(solveUS, us(took))
			cells += sol.DPCells
			before += sol.QuantaBeforeGCD
			after += sol.QuantaAfterGCD
			solves++
		}

		// partition: the DP over the filled cost table, cold and with only
		// the levels up to a mid-pipeline straggler stale.
		cold, err := medianOf(func() error {
			_, err := partition.SolveWorkers(L, p, n, pl.CostFor, 1)
			return err
		})
		if err != nil {
			return err
		}
		memo := &partition.Memo{}
		if _, err := partition.SolveMemo(L, p, n, pl.CostFor, memo, p-1, 1); err != nil {
			return err
		}
		incr, err := medianOf(func() error {
			_, err := partition.SolveMemo(L, p, n, pl.CostFor, memo, p/2, 1)
			return err
		})
		if err != nil {
			return err
		}
		solveMS = append(solveMS, ms(cold))
		incrMS = append(incrMS, ms(incr))
	}
	l["recompute.solve_us"] = mean(solveUS)
	l["recompute.dp_cells_per_solve"] = ratio(float64(cells), float64(solves))
	l["recompute.gcd_reduction_x"] = ratio(float64(before), float64(after))
	l["partition.solve_ms"] = mean(solveMS)
	l["partition.incremental_ms"] = mean(incrMS)

	// core: the whole search, one worker against every core.
	serial, err := medianOf(func() error { _, _, err := probePlanner(ctx, reqs[0], 1); return err })
	if err != nil {
		return err
	}
	par, err := medianOf(func() error { _, _, err := probePlanner(ctx, reqs[0], runtime.NumCPU()); return err })
	if err != nil {
		return err
	}
	l["core.parallel_speedup_x"] = ratio(float64(serial), float64(par))
	return nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// probeSim times schedule construction and one simulation of req's plan.
func probeSim(ctx context.Context, l ledger, req request.PlanRequest) error {
	pl, plan, err := probePlanner(ctx, req, 1)
	if err != nil {
		return err
	}
	var sched *schedule.Schedule
	build, err := medianOf(func() error {
		var err error
		sched, err = schedule.OneFOneB(req.PP, pl.MicroBatches())
		return err
	})
	if err != nil {
		return err
	}
	events := 0
	for _, ops := range sched.Ops {
		events += len(ops)
	}
	costs := baseline.StageCosts(plan)
	run, err := medianOf(func() error {
		_, err := sim.Run(sim.Input{Sched: sched, Stages: costs})
		return err
	})
	if err != nil {
		return err
	}
	l["schedule.build_us"] = us(build)
	l["sim.run_us"] = us(run)
	l["sim.events_per_s"] = ratio(float64(events), run.Seconds())
	return nil
}

// probeReplanCold times a replan with the incremental state thrown away.
func probeReplanCold(ctx context.Context, l ledger, req request.PlanRequest) error {
	pl, plan, err := probePlanner(ctx, req, 1)
	if err != nil {
		return err
	}
	scale := make([]float64, req.PP)
	for i := range scale {
		scale[i] = 1
	}
	scale[req.PP/2] = 1.25
	cold, err := medianOf(func() error {
		pl.ResetIncremental()
		_, err := pl.ReplanWithScaleContext(ctx, plan, scale)
		return err
	})
	l["core.replan_cold_ms"] = ms(cold)
	return err
}

// probeSnapshot times saving and loading the store the traced replay filled.
func probeSnapshot(l ledger, store *coststore.Store, scratch string) error {
	path := filepath.Join(scratch, "probe-snapshot.json")
	save, err := medianOf(func() error { return store.SaveSnapshot(path) })
	if err != nil {
		return err
	}
	load, err := medianOf(func() error { return coststore.New(4096).LoadSnapshot(path) })
	if err != nil {
		return err
	}
	l["coststore.snapshot_save_ms"] = ms(save)
	l["coststore.snapshot_load_ms"] = ms(load)
	return nil
}

// probeHandlerHit times the daemon's handler, called in-process, on a request
// its response cache holds: the serve layer without the HTTP server and the
// loopback socket.
func probeHandlerHit(req request.PlanRequest) (float64, error) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	body := mustJSON(req)
	call := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		return rec
	}
	if rec := call(); rec.Code != http.StatusOK {
		return 0, fmt.Errorf("handler probe: status %d", rec.Code)
	}
	xs := make([]float64, 2000)
	for i := range xs {
		t0 := time.Now()
		rec := call()
		xs[i] = us(time.Since(t0))
		if rec.Header().Get("X-Adapipe-Cache") != "hit" {
			return 0, fmt.Errorf("handler probe: repeat was not a cache hit")
		}
	}
	return median(xs), nil
}

// traceTrain runs the traced pass of train_1f1b: the same steps untraced and
// with the program's public op recorder attached, then the tensor probe.
func (h *harness) traceTrain(ctx context.Context) (*traceResult, error) {
	budget := time.Duration(h.seconds * float64(time.Second))
	rigs, base, err := trainSetup(h.seed)
	if err != nil {
		return nil, err
	}
	plain := runTrain(ctx, rigs, base, budget*4/10, false)
	traced := runTrain(ctx, rigs, base, budget*4/10, true)
	out := &traceResult{ledger: ledger{}, attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	out.errs = append(plain.errs, traced.errs...)
	l := out.ledger
	l["train.fwd_share"], l["train.bwd_share"], l["train.recompute_share"], l["train.stall_share"] = trainShares(traced)
	l["train.step_ms_saveall"] = median(plain.bySpecMS[0])
	l["train.step_ms_savenone"] = median(plain.bySpecMS[1])
	l["train.peak_act_mb"] = float64(plain.peakAct) / (1 << 20)
	l["train.allocs_per_step"] = ratio(float64(plain.mallocs), float64(len(plain.stepMS)))
	l["tensor.matmul_gflops"], l["tensor.softmax_us"] = tensorProbe(budget / 10)
	l["harness.trace_overhead_pct"] = 100 * (ratio(median(traced.stepMS), median(plain.stepMS)) - 1)

	// The trace file: the recorded ops of the first steps, one track per stage.
	var spans []span
	var offset time.Duration
	step := 0
	for k, traces := range traced.traces {
		for _, tr := range traces {
			if step >= traceFileOps {
				break
			}
			for _, sp := range tr.Spans {
				spans = append(spans, span{
					Layer: "train", Name: sp.Op.Kind.String() + "." + trainSpecs[k], Parent: -1, Op: step, Track: sp.Stage,
					Start: offset + time.Duration(sp.Start*float64(time.Second)),
					End:   offset + time.Duration(sp.End*float64(time.Second)),
				})
			}
			offset += time.Duration(tr.WallTime * float64(time.Second))
			step++
		}
	}
	if out.traceFile, err = writeChrome(h.outDir, wlTrain1F1B, spans); err != nil {
		return nil, err
	}
	return out, nil
}
