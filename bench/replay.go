package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/request"
)

// replica answers scripted operations in-process and single-threaded by
// calling the same public functions, in the same order, as the daemon's
// handlers do — with a span around each call. It is the outside-in stand-in
// for spans inside the program (a later issue): the per-layer ledger comes
// from what it records. Its replies go through the same output checks as the
// daemon's.
type replica struct {
	tr    *tracer
	store *coststore.Store
	// responses stands in for the daemon's response LRU; every working set
	// replayed here is smaller than the LRU's 256 entries.
	responses map[string][]byte
	warm      map[string]*warmPlanner
	c         replicaCounts
	// measureAllocs brackets each cold search with runtime.ReadMemStats; it
	// is set on the untraced pass only (span records allocate too).
	measureAllocs bool
	// searched keeps the first probeRequests requests searched cold.
	searched []request.PlanRequest
}

// probeRequests is how many of a replay's searches the layer probes repeat.
const probeRequests = 3

type warmPlanner struct {
	pl   *core.Planner
	plan *core.Plan
}

// replicaCounts accumulates what the planner's public counters reported.
type replicaCounts struct {
	searches            int
	search              core.SearchStats // summed over cold searches
	replans             int
	warmCells, invalIso int
	mallocs, allocBytes uint64
	storeHits           int
	storeHitTime        time.Duration
	storeTime           time.Duration
	computeTime         time.Duration
}

func newReplica(tr *tracer, measureAllocs bool) *replica {
	return &replica{
		tr:            tr,
		store:         coststore.New(4096), // adapiped's -cost-store-size default
		responses:     map[string][]byte{},
		warm:          map[string]*warmPlanner{},
		measureAllocs: measureAllocs,
	}
}

// GetOrCompute makes the replica a core.CostSource: the planner's shared-store
// lookups pass through it, so store time and the solve inside it are timed at
// the layer boundary.
func (r *replica) GetOrCompute(key coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition) {
	id := r.tr.begin("coststore", "get_or_compute")
	t0 := time.Now()
	var inner time.Duration
	e, disp := r.store.GetOrCompute(key, func() coststore.Entry {
		cid := r.tr.begin("core", "solve_stage")
		c0 := time.Now()
		e := compute()
		inner = time.Since(c0)
		r.tr.end(cid)
		return e
	})
	d := time.Since(t0)
	r.tr.end(id)
	r.c.storeTime += d
	r.c.computeTime += inner
	if disp == coststore.Hit {
		r.c.storeHits++
		r.c.storeHitTime += d
	}
	return e, disp
}

// search constructs the planner a request names and runs one cold search at
// workers 1, as the daemon's searchPlan does.
func (r *replica) search(ctx context.Context, req request.PlanRequest) (*core.Planner, *core.Plan, error) {
	var pl *core.Planner
	var plan *core.Plan
	var err error
	r.tr.in("core", "construct", func() {
		if pl, err = req.NewPlanner(1); err == nil {
			err = pl.SetCostSource(r)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var before runtime.MemStats
	if r.measureAllocs {
		runtime.ReadMemStats(&before)
	}
	r.tr.in("core", "search", func() { plan, err = pl.PlanContext(ctx) })
	if err != nil {
		return nil, nil, err
	}
	if r.measureAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.c.mallocs += after.Mallocs - before.Mallocs
		r.c.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	r.c.searches++
	if len(r.searched) < probeRequests {
		r.searched = append(r.searched, req)
	}
	s := plan.Search
	r.c.search.KnapsackRuns += s.KnapsackRuns
	r.c.search.CostEvaluations += s.CostEvaluations
	r.c.search.CacheHits += s.CacheHits
	r.c.search.PartitionCells += s.PartitionCells
	r.c.search.KnapsackCells += s.KnapsackCells
	return pl, plan, nil
}

// planBody runs the miss path of /v1/plan for an already parsed and hashed
// request and caches the encoded response.
func (r *replica) planBody(ctx context.Context, req request.PlanRequest, hash string) (body, planJSON []byte, err error) {
	_, plan, err := r.search(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	var env request.ResponseEnvelope
	r.tr.in("request", "hash", func() { env, err = request.NewResponseEnvelope(req) })
	if err != nil {
		return nil, nil, err
	}
	r.tr.in("core", "serialize", func() { planJSON, err = json.Marshal(plan) })
	if err != nil {
		return nil, nil, err
	}
	r.tr.in("request", "encode", func() {
		body, err = request.PlanResponse{ResponseEnvelope: env, Plan: planJSON}.Encode()
	})
	if err != nil {
		return nil, nil, err
	}
	r.responses[hash] = body
	return body, planJSON, nil
}

// do answers one operation. Errors are the replica's own (a request it could
// not answer); the caller counts them as failed operations.
func (r *replica) do(ctx context.Context, o op) (reply, error) {
	r.tr.beginOp()
	top := r.tr.begin("harness", "op_"+o.kind.String())
	defer r.tr.end(top)
	h := http.Header{}
	var body []byte
	var err error
	switch o.kind {
	case opPlan:
		body, err = r.doPlan(ctx, o, h)
	case opSimulate:
		body, err = r.doSimulate(ctx, o)
	case opReplan:
		body, err = r.doReplan(ctx, o, h)
	case opSweep:
		body, err = r.doSweep(ctx, o)
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: http.StatusOK, header: h, body: body}, nil
}

// parsePlan is the decode phase /v1/plan and /v1/simulate share: parse,
// validate and hash the body.
func (r *replica) parsePlan(body []byte) (req request.PlanRequest, hash string, err error) {
	r.tr.in("request", "parse", func() { req, err = request.ParsePlanRequest(body) })
	if err != nil {
		return req, "", err
	}
	r.tr.in("request", "hash", func() { hash, err = req.Hash() })
	return req, hash, err
}

func (r *replica) doPlan(ctx context.Context, o op, h http.Header) ([]byte, error) {
	req, hash, err := r.parsePlan(o.body)
	if err != nil {
		return nil, err
	}
	if body, ok := r.responses[hash]; ok {
		h.Set("X-Adapipe-Cache", "hit")
		return body, nil
	}
	h.Set("X-Adapipe-Cache", "miss")
	body, _, err := r.planBody(ctx, req, hash)
	return body, err
}

func (r *replica) doSimulate(ctx context.Context, o op) ([]byte, error) {
	req, hash, err := r.parsePlan(o.body)
	if err != nil {
		return nil, err
	}
	meth, err := req.MethodConfig()
	if err != nil {
		return nil, err
	}
	cfg, err := req.ModelConfig()
	if err != nil {
		return nil, err
	}
	cl, err := req.ClusterConfig()
	if err != nil {
		return nil, err
	}
	opts, err := req.Options(1)
	if err != nil {
		return nil, err
	}
	var out baseline.Outcome
	r.tr.in("baseline", "evaluate", func() {
		out = baseline.EvaluateContext(ctx, meth, cfg, cl, req.Strategy(), req.TrainingConfig(), opts)
	})
	if out.Err != nil || out.Plan == nil {
		return nil, fmt.Errorf("simulate %s: infeasible (err %v)", req.Method, out.Err)
	}
	var planJSON, body []byte
	r.tr.in("core", "serialize", func() { planJSON, err = json.Marshal(out.Plan) })
	if err != nil {
		return nil, err
	}
	r.tr.in("request", "encode", func() {
		body, err = json.Marshal(request.SimulateResponse{
			ResponseEnvelope: request.ResponseEnvelope{Version: request.Version, RequestHash: hash, Method: meth.Name},
			Schedule:         request.ScheduleName(meth.Schedule),
			IterSec:          out.Sim.IterTime,
			BubbleRatio:      out.Sim.BubbleRatio(),
			PeakBytes:        out.Sim.PeakMem,
			OOM:              out.OOM,
			Plan:             planJSON,
		})
	})
	return body, err
}

func (r *replica) doReplan(ctx context.Context, o op, h http.Header) ([]byte, error) {
	var req request.ReplanRequest
	var hash string
	var err error
	r.tr.in("request", "parse", func() { req, err = request.ParseReplanRequest(o.body) })
	if err != nil {
		return nil, err
	}
	r.tr.in("request", "hash", func() { hash, err = req.Request.Hash() })
	if err != nil {
		return nil, err
	}
	w := r.warm[hash]
	h.Set("X-Adapipe-Replan", "warm")
	if w == nil {
		h.Set("X-Adapipe-Replan", "cold")
		pl, plan, err := r.search(ctx, req.Request)
		if err != nil {
			return nil, err
		}
		w = &warmPlanner{pl: pl, plan: plan}
		r.warm[hash] = w
	}
	before := w.pl.StatsSnapshot()
	var rep *core.Replan
	r.tr.in("core", "replan", func() { rep, err = w.pl.ReplanWithScaleContext(ctx, w.plan, req.Scale) })
	if err != nil {
		return nil, err
	}
	after := w.pl.StatsSnapshot()
	r.c.replans++
	r.c.warmCells += after.WarmStartCells - before.WarmStartCells
	r.c.invalIso += after.InvalidatedIsoClasses - before.InvalidatedIsoClasses
	next := rep.Old
	if rep.Adopted {
		next = rep.New
		w.plan = rep.New
	}
	var planJSON, body []byte
	r.tr.in("core", "serialize", func() { planJSON, err = json.Marshal(next) })
	if err != nil {
		return nil, err
	}
	r.tr.in("request", "encode", func() {
		body, err = request.ReplanResponse{
			ResponseEnvelope:      request.ResponseEnvelope{Version: request.Version, RequestHash: hash, Method: req.Request.Method},
			Adopted:               rep.Adopted,
			Incremental:           after.ReplanIncremental > before.ReplanIncremental,
			InvalidatedIsoClasses: after.InvalidatedIsoClasses - before.InvalidatedIsoClasses,
			WarmStartCells:        after.WarmStartCells - before.WarmStartCells,
			OldIterSec:            rep.OldSim.IterTime,
			NewIterSec:            rep.NewSim.IterTime,
			Plan:                  planJSON,
		}.Encode()
	})
	return body, err
}

func (r *replica) doSweep(ctx context.Context, o op) ([]byte, error) {
	var req request.SweepRequest
	var hash string
	var err error
	r.tr.in("request", "parse", func() { req, err = request.ParseSweepRequest(o.body) })
	if err != nil {
		return nil, err
	}
	r.tr.in("request", "hash", func() { hash, err = req.Hash() })
	if err != nil {
		return nil, err
	}
	if body, ok := r.responses[hash]; ok {
		return body, nil
	}
	var points []request.PlanRequest
	r.tr.in("request", "sweep_expand", func() { points, err = req.Expand() })
	if err != nil {
		return nil, err
	}
	results := make([]request.SweepPointResult, len(points))
	stats := request.SweepStats{Points: len(points)}
	for i, pt := range points {
		pid := r.tr.begin("harness", "sweep_point")
		res := request.SweepPointResult{Index: i, Request: pt}
		var np request.PlanRequest
		r.tr.in("request", "hash", func() {
			if np, err = pt.Normalize(); err == nil {
				res.RequestHash, err = np.Hash()
			}
		})
		if err != nil {
			return nil, err
		}
		if body, cached := r.responses[res.RequestHash]; cached {
			stats.Cached++
			r.tr.in("request", "parse", func() {
				var pr request.PlanResponse
				pr, err = request.ParsePlanResponse(body)
				res.Plan = pr.Plan
			})
		} else {
			stats.Planned++
			_, res.Plan, err = r.planBody(ctx, np, res.RequestHash)
		}
		if err != nil {
			return nil, err
		}
		r.tr.in("request", "parse", func() { res.IterSec, err = request.PlanIterSec(res.Plan) })
		if err != nil {
			return nil, err
		}
		results[i] = res
		r.tr.end(pid)
	}
	ranking := make([]int, len(results))
	for i := range ranking {
		ranking[i] = i
	}
	sort.SliceStable(ranking, func(a, b int) bool { return results[ranking[a]].IterSec < results[ranking[b]].IterSec })
	var body []byte
	r.tr.in("request", "encode", func() {
		body, err = request.SweepResponse{
			ResponseEnvelope: request.ResponseEnvelope{Version: request.Version, RequestHash: hash, Method: req.Base.Method},
			Points:           results,
			Ranking:          ranking,
			Stats:            stats,
		}.Encode()
	})
	if err != nil {
		return nil, err
	}
	r.responses[hash] = body
	return body, nil
}
