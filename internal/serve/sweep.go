package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"adapipe/internal/obs"
	"adapipe/internal/request"
)

// sweepEndpoint describes POST /v1/sweep: one request, a server-side grid of
// plan searches. The sweep is where the shared cost store earns its keep —
// grid points of one cost family (say a global-batch axis) differ only in the
// partition DP, so every point after the first answers its knapsack lookups
// from the store and the whole grid costs barely more knapsack work than a
// single point (asserted by servesmoke against /metrics).
//
// Sweeps ride the same pipeline as single plans: the whole sweep is cached
// and coalesced under the sweep's own canonical hash, each point's plan
// response is cached under the point's hash (so /v1/plan and /v1/sweep feed
// each other's caches), and the sweep holds exactly one admission slot for
// its whole run — a 256-point sweep cannot starve interactive requests any
// harder than one slow plan.
func (s *Server) sweepEndpoint() endpoint[request.SweepRequest] {
	return endpoint[request.SweepRequest]{
		parse:     request.ParseSweepRequest,
		hash:      request.SweepRequest.Hash,
		accepted:  &s.sweepReqs,
		cacheable: true,
		header:    headerCache,
		run:       s.runSweep,
	}
}

// runSweep is the sweep leader's body: point-by-point planning with dedup and
// response-cache reuse, ranking, encoding. A deadline or shutdown mid-grid
// fails the whole sweep — the cost store's entries are complete-or-absent, so
// an aborted sweep leaves it clean.
func (s *Server) runSweep(ctx context.Context, tr *obs.Tracer, req request.SweepRequest, hash string) result {
	points, err := req.Expand()
	if err != nil {
		// Unreachable after ParseSweepRequest normalized the sweep.
		return errResult(http.StatusBadRequest, request.ErrCodeInvalidRequest, err.Error())
	}
	s.sweepPoints.Add(int64(len(points)))

	results := make([]request.SweepPointResult, len(points))
	var stats request.SweepStats
	stats.Points = len(points)
	// seen maps a point's canonical hash to the first result computed for it;
	// duplicate grid points copy that result instead of planning again.
	seen := make(map[string]*request.SweepPointResult, len(points))
	for i, pt := range points {
		if ctx.Err() != nil {
			return s.searchErr(ctx, ctx.Err()).result()
		}
		ptStart := s.clock()
		results[i] = s.sweepPoint(ctx, i, pt, seen, &stats)
		tr.Add(fmt.Sprintf("point[%03d]", i), obs.CatPhase, ptStart, s.clock())
		if results[i].Error != nil && ctx.Err() != nil {
			// The point failed because the sweep's context ended; report the
			// cancellation, not a half-built grid.
			return s.searchErr(ctx, ctx.Err()).result()
		}
	}
	s.sweepPlanned.Add(int64(stats.Planned))
	s.sweepDeduped.Add(int64(stats.Deduped))
	s.sweepCached.Add(int64(stats.Cached))
	s.sweepFailed.Add(int64(stats.Failed))

	encStart := s.clock()
	resp := request.SweepResponse{
		ResponseEnvelope: envelope(hash, req.Base.Method),
		Points:           results,
		Ranking:          rankPoints(results, req.TopK),
		Stats:            stats,
	}
	body, err := resp.Encode()
	if err != nil {
		return errResult(http.StatusInternalServerError, request.ErrCodeInternal, err.Error())
	}
	tr.Add("encode", obs.CatPhase, encStart, s.clock())
	return result{status: http.StatusOK, body: body}
}

// sweepPoint resolves one grid point: normalize, dedup against earlier
// points, and plan a new one through pointPlan. Every failure is a per-point
// canonical error — one infeasible combination never sinks the rest of the
// grid — and a duplicate point shares the first one's outcome, failure
// included.
func (s *Server) sweepPoint(ctx context.Context, i int, pt request.PlanRequest, seen map[string]*request.SweepPointResult, stats *request.SweepStats) request.SweepPointResult {
	res := request.SweepPointResult{Index: i, Request: pt}
	np, err := pt.Normalize()
	if err == nil {
		res.RequestHash, err = np.Hash()
	}
	first, dup := seen[res.RequestHash]
	switch {
	case err != nil:
		res.Error = &request.ErrorInfo{Code: request.ErrCodeInvalidRequest, Message: err.Error(), Status: http.StatusBadRequest}
	case dup:
		res.IterSec, res.Plan, res.Error = first.IterSec, first.Plan, first.Error
		if res.Error == nil {
			stats.Deduped++
		}
	default:
		if plan, he := s.pointPlan(ctx, np, res.RequestHash, stats); he != nil {
			res.Error = &request.ErrorInfo{Code: he.code, Message: he.msg, Status: he.status}
		} else {
			res.Plan = plan
			res.IterSec, _ = request.PlanIterSec(plan)
		}
		seen[res.RequestHash] = &res
	}
	if res.Error != nil {
		stats.Failed++
	}
	return res
}

// pointPlan answers a new grid point from the response cache, or else by a
// fresh search whose plan response it feeds back into the cache: a later
// /v1/plan for this exact point is a byte-identical cache hit.
func (s *Server) pointPlan(ctx context.Context, np request.PlanRequest, hash string, stats *request.SweepStats) (json.RawMessage, *httpError) {
	if cached, ok := s.cache.Get(hash); ok {
		if pr, err := request.ParsePlanResponse(cached.body); err == nil {
			s.hits.Add(1)
			stats.Cached++
			return pr.Plan, nil
		}
	}
	plan, err := s.planFn(ctx, np)
	if err != nil {
		return nil, s.searchErr(ctx, err)
	}
	stats.Planned++
	s.knapsackRuns.Add(int64(plan.Search.KnapsackRuns))
	pr, err := request.NewPlanResponse(envelope(hash, np.Method), plan)
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, request.ErrCodeInternal, err.Error()}
	}
	if body, err := pr.Encode(); err == nil {
		s.cache.Put(hash, result{status: http.StatusOK, body: body})
	}
	return pr.Plan, nil
}

// rankPoints orders the feasible points by ascending modeled iteration time,
// ties broken by expansion index, truncated to topK when topK > 0.
func rankPoints(results []request.SweepPointResult, topK int) []int {
	ranking := make([]int, 0, len(results))
	for i := range results {
		if results[i].Error == nil {
			ranking = append(ranking, i)
		}
	}
	sort.SliceStable(ranking, func(a, b int) bool {
		ra, rb := results[ranking[a]], results[ranking[b]]
		if ra.IterSec != rb.IterSec {
			return ra.IterSec < rb.IterSec
		}
		return ra.Index < rb.Index
	})
	if topK > 0 && len(ranking) > topK {
		ranking = ranking[:topK]
	}
	return ranking
}
