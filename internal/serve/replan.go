package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"adapipe/internal/core"
	"adapipe/internal/obs"
	"adapipe/internal/request"
)

// Replan-disposition values of the X-Adapipe-Replan response header.
const (
	// ReplanWarm marks a replan answered by a warm-started incremental
	// search on a planner the store already held for the request hash.
	ReplanWarm = "warm"
	// ReplanCold marks a replan that first ran the cold search seeding a
	// warm planner for the hash (the first replan for a training run).
	ReplanCold = "cold"

	headerReplan = "X-Adapipe-Replan"
)

// replanEntry is one warm planner and its incumbent plan. The planner runs
// one call at a time on its own; mu makes a whole replan round — the cold
// seed, the scale it installs, the replan and the incumbent it advances — one
// step, so two replans for one hash run one after the other (they still run
// concurrently with replans for other hashes, each under its own admission
// slot).
type replanEntry struct {
	mu sync.Mutex
	// pl is the warm planner; nil until the entry's first (cold) search
	// completes.
	// guarded by mu
	pl *core.Planner
	// plan is the incumbent — the cold search's plan at first, then the
	// latest adopted replan.
	// guarded by mu
	plan *core.Plan
}

// replanEndpoint describes POST /v1/replan: look up (or seed) the warm
// planner for the inner plan request's hash, and run one straggler
// replanning round on it. The first replan for a hash runs the cold search
// that seeds the planner's memo; every later one warm-starts incrementally,
// which is the point of keeping planners alive between requests. Responses
// are never cached or coalesced — each replan advances the entry's
// incumbent, so two replans are never the same computation.
func (s *Server) replanEndpoint() endpoint[request.ReplanRequest] {
	return endpoint[request.ReplanRequest]{
		parse:    request.ParseReplanRequest,
		hash:     func(req request.ReplanRequest) (string, error) { return req.Request.Hash() },
		accepted: &s.replanReqs,
		header:   headerReplan,
		run:      s.runReplan,
	}
}

// runReplan takes the hash's entry from the planner store (creating it when
// absent), locks it — the store only covers the map — and replans on it.
func (s *Server) runReplan(ctx context.Context, tr *obs.Tracer, req request.ReplanRequest, hash string) result {
	entry, _, err := s.planners.GetOrCompute(ctx, hash, func() (*replanEntry, bool) { return &replanEntry{}, true })
	if err != nil {
		return s.searchErr(ctx, err).result()
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	warm, disposition := entry.pl != nil, ReplanCold
	if warm {
		disposition = ReplanWarm
	}

	searchStart := s.clock()
	body, herr := s.replan(obs.WithTracer(ctx, tr), req, hash, entry, warm)
	s.observeSearch(tr, searchStart)
	if herr != nil {
		res := herr.result()
		res.disposition = disposition
		return res
	}
	if warm {
		s.replanWarm.Add(1)
	} else {
		s.replanCold.Add(1)
	}
	return result{status: http.StatusOK, body: body, disposition: disposition}
}

// replan performs the replan itself under the entry lock: seed the
// planner with a cold search when the entry is fresh, then run one
// warm-startable replanning round and encode the response. The caller holds
// entry.mu.
func (s *Server) replan(ctx context.Context, req request.ReplanRequest, hash string, entry *replanEntry, warm bool) ([]byte, *httpError) {
	if !warm {
		pl, plan, err := s.search(ctx, req.Request)
		if pl == nil {
			return nil, &httpError{http.StatusBadRequest, request.ErrCodeInvalidRequest, err.Error()}
		}
		if err != nil {
			he := s.searchErr(ctx, err)
			return nil, &httpError{he.status, he.code, "seeding warm planner: " + err.Error()}
		}
		entry.pl, entry.plan = pl, plan
	}
	pl := entry.pl

	before := pl.StatsSnapshot()
	s.searches.Add(1)
	rep, err := pl.ReplanWithScaleContext(ctx, entry.plan, req.Scale)
	if err != nil {
		he := s.searchErr(ctx, err)
		return nil, &httpError{he.status, he.code, err.Error()}
	}
	after := pl.StatsSnapshot()
	s.knapsackRuns.Add(int64(after.KnapsackRuns - before.KnapsackRuns))

	next := rep.Old
	if rep.Adopted {
		next = rep.New
		entry.plan = rep.New
		s.replanAdopted.Add(1)
	}
	planJSON, err := json.Marshal(next)
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, request.ErrCodeInternal, err.Error()}
	}
	resp := request.ReplanResponse{
		ResponseEnvelope:      envelope(hash, req.Request.Method),
		Adopted:               rep.Adopted,
		Incremental:           after.ReplanIncremental > before.ReplanIncremental,
		InvalidatedIsoClasses: after.InvalidatedIsoClasses - before.InvalidatedIsoClasses,
		WarmStartCells:        after.WarmStartCells - before.WarmStartCells,
		OldIterSec:            rep.OldSim.IterTime,
		NewIterSec:            rep.NewSim.IterTime,
		Plan:                  planJSON,
	}
	body, err := resp.Encode()
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, request.ErrCodeInternal, err.Error()}
	}
	return body, nil
}
