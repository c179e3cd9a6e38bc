package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"adapipe/internal/request"
	"adapipe/internal/serve"
)

// target is a serving adapiped: a real daemon process, or — in the -short
// smoke pass the tier-1 test runs — an in-process serve.Server behind
// httptest. pid 0 means in-process (resource use is then the harness's own).
type target struct {
	base string
	pid  int
	stop func() error
}

// launcher starts a target; costStorePath, when set, is passed as
// -cost-store-path.
type launcher func(costStorePath string) (*target, error)

func daemonLauncher(bin, scratch string) launcher {
	return func(costStorePath string) (*target, error) {
		var extra []string
		if costStorePath != "" {
			extra = []string{"-cost-store-path", costStorePath}
		}
		d, err := startDaemon(bin, scratch, extra...)
		if err != nil {
			return nil, err
		}
		return &target{base: d.base, pid: d.cmd.Process.Pid, stop: d.stop}, nil
	}
}

func inProcessLauncher(costStorePath string) (*target, error) {
	srv := serve.New(serve.Config{CostStorePath: costStorePath})
	ts := httptest.NewServer(srv.Handler())
	return &target{base: ts.URL, stop: func() error {
		ts.Close()
		srv.Close()
		return nil
	}}, nil
}

// sliceScript replays a fixed list of operations.
type sliceScript struct{ ops []op }

func (s *sliceScript) next() (op, bool) {
	if len(s.ops) == 0 {
		return op{}, false
	}
	o := s.ops[0]
	s.ops = s.ops[1:]
	return o, true
}

// runOnce sends ops through the closed-loop clients (dealt round-robin to the
// lanes) and hands every reply to keep. Any failed operation is an error:
// set-up must be clean.
func runOnce(ctx context.Context, base string, ops []op, keep func(i int, rp reply)) error {
	scripts := make([]script, lanes)
	for l := range scripts {
		s := &sliceScript{}
		for i := l; i < len(ops); i += lanes {
			s.ops = append(s.ops, ops[i])
		}
		scripts[l] = s
	}
	res := runLoad(ctx, loadSpec{base: base, scripts: scripts, keep: func(lane, idx int, rp reply) {
		if keep != nil {
			keep(idx*lanes+lane, rp) // lane l holds ops l, l+lanes, …
		}
	}}, 0)
	if res.failed > 0 {
		return fmt.Errorf("%d of %d set-up operations failed: %v", res.failed, res.attempted, res.errs)
	}
	return nil
}

// daemonSetup is the state set-up leaves for the timed run.
type daemonSetup struct {
	tgt *target
	hot *hotExpect
	// speedup is plan_cold's plan-quality metric (0 elsewhere).
	speedup float64
}

// setupDaemon brings a target to the state the workload's timed run starts
// from. Everything here is part of setup_s.
func (h *harness) setupDaemon(ctx context.Context, workload string, hot *hotSet) (*daemonSetup, error) {
	launch, scratch := h.launch, h.scratch
	switch workload {
	case wlPlanCold:
		tgt, err := launch("")
		if err != nil {
			return nil, err
		}
		// The plan-quality metric: both methods simulated once on each of the
		// 12 fixed shapes.
		quality := h.qualityRequests()
		var ops []op
		for _, q := range quality {
			for _, m := range []string{"AdaPipe", "DAPPLE-Full"} {
				q.Method = m
				ops = append(ops, op{kind: opSimulate, body: mustJSON(q), req: q, hot: -1})
			}
		}
		iter := make([]float64, len(ops))
		var oom error
		err = runOnce(ctx, tgt.base, ops, func(i int, rp reply) {
			var sr request.SimulateResponse
			if json.Unmarshal(rp.body, &sr) == nil {
				iter[i] = sr.IterSec
				if sr.OOM {
					oom = fmt.Errorf("quality shape %d (%s) is out of memory", i/2, ops[i].req.Method)
				}
			}
		})
		if err == nil {
			err = oom
		}
		if err != nil {
			_ = tgt.stop()
			return nil, err
		}
		var logSum float64
		for i := 0; i < len(iter); i += 2 {
			logSum += math.Log(iter[i+1] / iter[i])
		}
		return &daemonSetup{tgt: tgt, speedup: math.Exp(logSum / float64(len(quality)))}, nil

	case wlPlanHot:
		tgt, err := launch("")
		if err != nil {
			return nil, err
		}
		ops := make([]op, len(hot.reqs))
		for i, q := range hot.reqs {
			ops[i] = op{kind: opPlan, body: mustJSON(q), req: q, hot: -1}
		}
		exp := &hotExpect{bodies: make([][]byte, len(ops)), modeled: make([]float64, len(ops))}
		err = runOnce(ctx, tgt.base, ops, func(i int, rp reply) {
			exp.bodies[i] = bytes.Clone(rp.body)
			if pr, err := request.ParsePlanResponse(rp.body); err == nil {
				exp.modeled[i], _ = request.PlanIterSec(pr.Plan)
			}
		})
		if err != nil {
			_ = tgt.stop()
			return nil, err
		}
		return &daemonSetup{tgt: tgt, hot: exp}, nil

	case wlReplanSweep:
		// Prime a daemon with the four runs' plans, drain it (SIGTERM saves the
		// cost store), restart it on the snapshot, and seed the four warm
		// planners with a nominal-scale replan each.
		snap := filepath.Join(scratch, "coststore.json")
		_ = os.Remove(snap) // every set-up repetition starts from no snapshot
		tgt, err := launch(snap)
		if err != nil {
			return nil, err
		}
		var prime, seedOps []op
		for _, q := range trainingRuns {
			prime = append(prime, op{kind: opPlan, body: mustJSON(q), req: q, hot: -1})
			scale := make([]float64, q.PP)
			for i := range scale {
				scale[i] = 1
			}
			rp := request.ReplanRequest{Version: request.Version, Request: q, Scale: scale}
			seedOps = append(seedOps, op{kind: opReplan, body: mustJSON(rp), req: q, hot: -1})
		}
		err = runOnce(ctx, tgt.base, prime, nil)
		if serr := tgt.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(snap); err != nil {
			return nil, fmt.Errorf("drain left no cost-store snapshot: %w", err)
		}
		if tgt, err = launch(snap); err != nil {
			return nil, err
		}
		if err := runOnce(ctx, tgt.base, seedOps, nil); err != nil {
			_ = tgt.stop()
			return nil, err
		}
		return &daemonSetup{tgt: tgt}, nil
	}
	return nil, fmt.Errorf("unknown daemon workload %q", workload)
}

// daemonRun is the outcome of one timed daemon run.
type daemonRun struct {
	setupS     []float64
	speedup    float64
	load       *loadResult
	before     promMetrics
	after      promMetrics
	peakRSSMiB float64
	cpuS       float64
	clientCPUS float64
}

// runDaemon sets the workload up setupReps times (the last one is kept for
// the timed run), drives it for d, scrapes /metrics only before and after the
// timed window, and stops the target, requiring a clean exit.
func (h *harness) runDaemon(ctx context.Context, workload string, d time.Duration, setupReps int, golden [][]goldenEntry) (*daemonRun, error) {
	var hot *hotSet
	if workload == wlPlanHot {
		hot = h.hotSet()
	}
	run := &daemonRun{}
	var su *daemonSetup
	for rep := 0; rep < setupReps; rep++ {
		if su != nil {
			if err := su.tgt.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if su, err = h.setupDaemon(ctx, workload, hot); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", workload, err)
		}
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
	}
	run.speedup = su.speedup
	tgt := su.tgt
	var err error
	if run.before, err = scrape(ctx, tgt.base); err != nil {
		_ = tgt.stop()
		return nil, err
	}
	_, cpu0, err := procStat(tgt.pid)
	if err != nil {
		_ = tgt.stop()
		return nil, err
	}
	_, self0, _ := procStat(0)
	run.load = runLoad(ctx, loadSpec{
		base: tgt.base, scripts: newScripts(workload, h.seed, hot), hot: su.hot,
		wantWarm: workload == wlReplanSweep, golden: golden,
	}, d)
	_, self1, _ := procStat(0)
	var cpu1 float64
	if run.peakRSSMiB, cpu1, err = procStat(tgt.pid); err != nil {
		_ = tgt.stop()
		return nil, err
	}
	run.cpuS = cpu1 - cpu0
	run.clientCPUS = self1 - self0
	if run.after, err = scrape(ctx, tgt.base); err != nil {
		_ = tgt.stop()
		return nil, err
	}
	if err := tgt.stop(); err != nil {
		run.load.fail("shutdown: %v", err)
	}
	return run, nil
}

// primaryKind is the operation whose latency a daemon workload reports as
// op_p50_ms / op_p95_ms.
func primaryKind(workload string) opKind {
	if workload == wlReplanSweep {
		return opReplan
	}
	return opPlan
}

// endToEnd reduces a daemon run to the end-to-end metrics.
func (r *daemonRun) endToEnd(workload string) map[string]float64 {
	completed := 0
	for _, ms := range r.load.ms {
		completed += len(ms)
	}
	prim := r.load.ms[primaryKind(workload)]
	m := map[string]float64{
		"setup_s":          median(append([]float64(nil), r.setupS...)),
		"throughput_ops_s": ratio(float64(completed), r.load.wall.Seconds()),
		"op_p50_ms":        quantile(prim, 0.5),
		"op_p95_ms":        quantile(prim, 0.95),
		"peak_rss_mb":      r.peakRSSMiB,
		"cpu_ms_per_op":    ratio(r.cpuS*1000, float64(completed)),
	}
	return m
}

// extras are the workload-specific end-to-end numbers the issue names that
// not every workload has, so BENCHMARK.json cannot carry them.
func (r *daemonRun) extras(workload string) map[string]float64 {
	m := map[string]float64{
		"failed_share": ratio(float64(r.load.failed), float64(r.load.attempted)),
		"op_samples":   float64(len(r.load.ms[primaryKind(workload)])),
	}
	switch workload {
	case wlPlanCold:
		m["adapipe_speedup_x"] = r.speedup
		m["simulate_p50_ms"] = median(r.load.ms[opSimulate])
	case wlReplanSweep:
		m["sweep_point_p50_ms"] = median(r.load.ms[opSweep])
		m["sweep_samples"] = float64(len(r.load.ms[opSweep]))
	}
	return m
}

// serveLedger derives the serve and coststore rows of the per-layer ledger
// from the /metrics deltas of the timed window.
func (r *daemonRun) serveLedger() map[string]float64 {
	d := func(name string) float64 { return r.after["adapipe_serve_"+name] - r.before["adapipe_serve_"+name] }
	lookups := d("cache_hits_total") + d("cache_misses_total") + d("coalesced_total")
	store := d("cost_store_hits_total") + d("cost_store_misses_total") + d("cost_store_shared_total")
	cacheable := d(`requests_total{endpoint="plan"}`) + d("sweep_requests_total")
	return map[string]float64{
		"serve.cache_hit_ratio":          ratio(d("cache_hits_total"), lookups),
		"serve.coalesced_share":          ratio(d("coalesced_total"), cacheable),
		"serve.queue_wait_ms":            1000 * ratio(d("queue_seconds_sum"), d("queue_seconds_count")),
		"serve.search_share":             ratio(d("search_seconds_sum"), d("request_seconds_sum")),
		"serve.replan_warm_ratio":        ratio(d("replans_incremental_total"), d("replan_requests_total")),
		"serve.sweep_cached_point_ratio": ratio(d("sweep_points_cached_total"), d("sweep_points_total")),
		"serve.errors":                   d("errors_total"),
		"serve.rejected":                 d("rejected_total"),
		"coststore.hit_ratio":            ratio(d("cost_store_hits_total"), store),
		"coststore.shared_share":         ratio(d("cost_store_shared_total"), store),
		"coststore.evictions_per_search": ratio(d("cost_store_evictions_total"), d("searches_total")),
		"coststore.entries":              r.after["adapipe_serve_cost_store_entries"],
		"harness.client_cpu_share":       ratio(r.clientCPUS, r.clientCPUS+r.cpuS),
	}
}
