// Package serve turns the AdaPipe planner into a long-lived service: an HTTP
// JSON API (POST /v1/plan, POST /v1/simulate, POST /v1/replan, POST
// /v1/sweep, GET /v1/trace/{id}, GET /healthz, GET /metrics) over the
// versioned request schema of internal/request. The serving layer amortizes
// plan search across requests the same way §5.3 amortizes knapsack solves
// across ranges inside one search:
//
//   - one compute-once bounded cache (internal/memo) keyed by the request's
//     canonical hash returns byte-identical responses for repeated searches
//     without re-running the DP, and collapses N concurrent identical
//     requests into one search whose result every waiter shares;
//   - a bounded-concurrency admission gate caps simultaneous searches — a
//     search is one goroutine, so the gate is the daemon's only parallelism
//     setting — and each admitted search runs under a deadline threaded down
//     into core.PlanContext, so a shutdown or timeout cancels the search
//     instead of orphaning it;
//   - a shared content-addressed cost store (internal/coststore) sits under
//     every planner the daemon builds itself — those of /v1/plan, of every
//     /v1/sweep point and of a /v1/replan cold seed, all built by search — so
//     distinct requests of one cost family (a sweep's grid points, repeat
//     plans with different batch sizes) reuse each other's knapsack solves.
//     /v1/simulate does not sit on it: baseline.EvaluateContext constructs
//     its own planner, its result bypasses the response cache too, and a
//     simulate that opens a new family would only pay the store's per-cell
//     hashing for entries nobody reads back.
//
// The four POST endpoints are one request pipeline (pipeline.go) run over
// four endpoint descriptions: decode, cache and coalesce, admission, the
// endpoint's own run body, and one epilogue that records the trace, the
// latency histogram, the headers and the log line.
//
// Everything observable is deterministic: cached, coalesced and cold
// responses for one request are the same bytes. Every failure, on every
// endpoint, is the canonical request.ErrorResponse envelope with a stable
// machine-readable code.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/memo"
	"adapipe/internal/obs"
	"adapipe/internal/request"
)

// Cache-disposition values of the X-Adapipe-Cache response header.
const (
	// CacheHit marks a response served from the LRU cache.
	CacheHit = "hit"
	// CacheMiss marks a response computed by a fresh search.
	CacheMiss = "miss"
	// CacheCoalesced marks a response shared from another request's
	// concurrently-running search.
	CacheCoalesced = "coalesced"

	headerCache = "X-Adapipe-Cache"
	headerHash  = "X-Adapipe-Request-Hash"
	headerTrace = "X-Adapipe-Trace"

	maxBodyBytes = 1 << 20
)

// Config tunes the serving layer. The zero value selects the defaults.
type Config struct {
	// CacheSize bounds the LRU plan cache in entries (default 256; negative
	// disables caching).
	CacheSize int
	// MaxInFlight bounds concurrently executing searches; further requests
	// queue on the admission gate until a slot frees or their deadline
	// expires (default DefaultMaxInFlight()). Each search runs on one
	// goroutine, so this is how many cores the daemon's searches use.
	MaxInFlight int
	// RequestTimeout bounds one search end to end, queueing included
	// (default 30s).
	RequestTimeout time.Duration
	// TraceBuffer bounds the ring of completed request traces served by
	// GET /v1/trace/{id} (default 64; negative disables tracing — requests
	// then run the nil-tracer hot path and carry no X-Adapipe-Trace
	// header). The ring is a memo.Cache keyed by trace id: ids are unique,
	// so insertion order is eviction order, except that fetching a trace
	// promotes it — a trace someone is reading outlives its neighbours.
	TraceBuffer int
	// PlannerStoreSize bounds the warm-planner store behind POST /v1/replan
	// in planners (default 64, minimum 1). Each entry keeps a live planner —
	// its iso-cache and partition-DP memo — so repeat replans for one
	// training run warm-start instead of searching cold.
	PlannerStoreSize int
	// CostStoreSize bounds the shared content-addressed cost store in
	// entries (default 4096; negative disables the store — planners then
	// solve privately and cross-request reuse stops at the response cache).
	CostStoreSize int
	// CostStorePath optionally persists the cost store: an existing snapshot
	// is loaded by New (a missing file is fine; a corrupt one is logged and
	// skipped — the daemon must come up either way), and Close writes the
	// store back before shutdown completes.
	CostStorePath string
	// Clock supplies every timestamp the serving layer takes (trace spans,
	// latency histograms, search-wall counters). Nil selects
	// obs.RealClock(); tests inject a fake for deterministic traces.
	Clock obs.Clock
	// Logger receives one structured record per plan/simulate request,
	// carrying the trace ID so log lines join to traces. Nil disables
	// request logging.
	Logger *slog.Logger
}

// DefaultMaxInFlight is the default admission bound: one search per core the
// Go scheduler runs, and at least two so a long search never starves a short
// one.
func DefaultMaxInFlight() int { return max(2, runtime.GOMAXPROCS(0)) }

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 64
	}
	if c.PlannerStoreSize <= 0 {
		c.PlannerStoreSize = 64
	}
	if c.CostStoreSize == 0 {
		c.CostStoreSize = 4096
	}
	if c.Clock == nil {
		c.Clock = obs.RealClock()
	}
	return c
}

// Server is the planner service. Create it with New, expose it via Handler,
// and Close it to cancel in-flight searches on shutdown.
type Server struct {
	cfg    Config
	base   context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	clock  obs.Clock
	logger *slog.Logger
	// traces is the ring of completed request traces behind GET
	// /v1/trace/{id}, by trace id.
	traces *memo.Cache[string, *obs.Tracer]
	// cache holds the encoded 200 responses of the cacheable endpoints by
	// request hash, and coalesces concurrent requests for one missing hash.
	cache *memo.Cache[string, result]
	// planners holds the warm planners behind POST /v1/replan by plan-request
	// hash. Eviction drops the planner: the next replan for that hash runs
	// cold again, slower but identical.
	planners *memo.Cache[string, *replanEntry]
	// costs is the shared cost store under the plan, replan-seed and
	// sweep-point planners (search); nil when disabled (CostStoreSize < 0).
	costs *coststore.Store
	// saveOnce makes the Close-time snapshot save idempotent.
	saveOnce sync.Once

	// planFn runs one search; tests substitute it to script timing.
	planFn func(ctx context.Context, req request.PlanRequest) (*core.Plan, error)

	planReqs, simReqs              atomic.Int64
	hits, misses, coalescedCount   atomic.Int64
	searches, rejected, errorCount atomic.Int64
	replanReqs, replanWarm         atomic.Int64
	replanCold, replanAdopted      atomic.Int64
	knapsackRuns                   atomic.Int64
	traceSeq                       atomic.Int64
	sweepReqs, sweepPoints         atomic.Int64
	sweepPlanned, sweepDeduped     atomic.Int64
	sweepCached, sweepFailed       atomic.Int64

	// The log-bucketed latency histograms behind /metrics: end-to-end
	// request wall time, cold-search wall, admission-queue wait, and plan-
	// cache lookup time — the four numbers that separate "search is slow"
	// from "server is saturated".
	histRequest obs.Histogram
	histSearch  obs.Histogram
	histQueue   obs.Histogram
	histCache   obs.Histogram
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		base:     base,
		cancel:   cancel,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		clock:    cfg.Clock,
		logger:   cfg.Logger,
		traces:   memo.New[string, *obs.Tracer](cfg.TraceBuffer),
		cache:    memo.New[string, result](cfg.CacheSize),
		planners: memo.New[string, *replanEntry](cfg.PlannerStoreSize),
	}
	if cfg.CostStoreSize > 0 {
		s.costs = coststore.New(cfg.CostStoreSize)
		if cfg.CostStorePath != "" {
			if err := s.costs.LoadSnapshot(cfg.CostStorePath); err != nil && !os.IsNotExist(err) {
				// A corrupt or incompatible snapshot must not stop the daemon:
				// start cold, log the reason, and overwrite it on Close.
				if cfg.Logger != nil {
					cfg.Logger.Warn("cost store snapshot not loaded", "path", cfg.CostStorePath, "err", err)
				}
			}
		}
	}
	s.planFn = s.searchPlan
	return s
}

// newTracer mints the tracer of one request, or nil when tracing is
// disabled. Trace IDs are a process-local sequence ("t000001"): they only
// need to be unique within the ring buffer's lifetime, and a deterministic
// sequence keeps smoke tests and log correlation simple.
func (s *Server) newTracer() *obs.Tracer {
	if s.cfg.TraceBuffer <= 0 {
		return nil
	}
	return obs.NewTracer(fmt.Sprintf("t%06d", s.traceSeq.Add(1)), s.clock, 0)
}

// Close cancels the server's base context — queued requests stop waiting for
// admission and running searches unwind through their contexts — and then
// drains the cost store to its snapshot path, if one was configured. Safe to
// call more than once; the snapshot is written once.
func (s *Server) Close() {
	s.cancel()
	s.saveOnce.Do(func() {
		if s.costs == nil || s.cfg.CostStorePath == "" {
			return
		}
		if err := s.costs.SaveSnapshot(s.cfg.CostStorePath); err != nil && s.logger != nil {
			s.logger.Warn("cost store snapshot not saved", "path", s.cfg.CostStorePath, "err", err)
		}
	})
}

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/plan", handle(s, s.planEndpoint()))
	mux.HandleFunc("/v1/simulate", handle(s, s.simulateEndpoint()))
	mux.HandleFunc("/v1/replan", handle(s, s.replanEndpoint()))
	mux.HandleFunc("/v1/sweep", handle(s, s.sweepEndpoint()))
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	return mux
}

// samples is the one exposition table behind GET /metrics: each counter and
// gauge appears here once — name, help, labels and the atomic, cache,
// semaphore, histogram or cost-store reading it reports — in exposition order.
// bench/ and servesmoke scrape these names, and TestMetricsExpositionUnchanged
// pins the rendered bytes. The cost-store rows read zero when the store is
// disabled.
func (s *Server) samples() []obs.Metric {
	var cs coststore.Stats
	if s.costs != nil {
		cs = s.costs.StatsSnapshot()
	}
	return []obs.Metric{
		{Name: "adapipe_serve_requests_total", Help: "accepted requests by endpoint", Labels: [][2]string{{"endpoint", "plan"}}, Value: float64(s.planReqs.Load())},
		{Name: "adapipe_serve_requests_total", Labels: [][2]string{{"endpoint", "simulate"}}, Value: float64(s.simReqs.Load())},
		{Name: "adapipe_serve_cache_hits_total", Help: "plan lookups served from the LRU response cache", Value: float64(s.hits.Load())},
		{Name: "adapipe_serve_cache_misses_total", Help: "plan lookups that required a search", Value: float64(s.misses.Load())},
		{Name: "adapipe_serve_cache_evictions_total", Help: "cached responses evicted by the LRU bound", Value: float64(s.cache.Evictions())},
		{Name: "adapipe_serve_cache_entries", Help: "responses currently cached", Value: float64(s.cache.Len())},
		{Name: "adapipe_serve_coalesced_total", Help: "requests that shared another request's in-flight search", Value: float64(s.coalescedCount.Load())},
		{Name: "adapipe_serve_searches_total", Help: "plan searches executed", Value: float64(s.searches.Load())},
		{Name: "adapipe_serve_knapsack_runs_total", Help: "recomputation DPs solved across all searches", Value: float64(s.knapsackRuns.Load())},
		{Name: "adapipe_serve_search_wall_seconds_total", Help: "summed search wall time in seconds", Value: time.Duration(s.histSearch.Snapshot().SumNanos).Seconds()},
		{Name: "adapipe_serve_replan_requests_total", Help: "accepted replan requests", Value: float64(s.replanReqs.Load())},
		{Name: "adapipe_serve_replans_incremental_total", Help: "replans served by a warm-started incremental search", Value: float64(s.replanWarm.Load())},
		{Name: "adapipe_serve_replans_cold_total", Help: "replans that first ran the cold search seeding a warm planner", Value: float64(s.replanCold.Load())},
		{Name: "adapipe_serve_replans_adopted_total", Help: "replans whose re-searched plan beat the repriced incumbent", Value: float64(s.replanAdopted.Load())},
		{Name: "adapipe_serve_replan_planners", Help: "warm planners currently held for replanning", Value: float64(s.planners.Len())},
		{Name: "adapipe_serve_in_flight", Help: "searches currently holding an admission slot", Value: float64(len(s.sem))},
		{Name: "adapipe_serve_rejected_total", Help: "requests that timed out waiting for admission", Value: float64(s.rejected.Load())},
		{Name: "adapipe_serve_errors_total", Help: "requests answered with a non-2xx status", Value: float64(s.errorCount.Load())},
		{Name: "adapipe_serve_sweep_requests_total", Help: "accepted sweep requests", Value: float64(s.sweepReqs.Load())},
		{Name: "adapipe_serve_sweep_points_total", Help: "grid points expanded across all sweeps", Value: float64(s.sweepPoints.Load())},
		{Name: "adapipe_serve_sweep_points_planned_total", Help: "sweep points that ran a fresh search", Value: float64(s.sweepPlanned.Load())},
		{Name: "adapipe_serve_sweep_points_deduped_total", Help: "sweep points served by copying a duplicate point's result", Value: float64(s.sweepDeduped.Load())},
		{Name: "adapipe_serve_sweep_points_cached_total", Help: "sweep points served from the response cache", Value: float64(s.sweepCached.Load())},
		{Name: "adapipe_serve_sweep_points_failed_total", Help: "sweep points that produced a per-point error", Value: float64(s.sweepFailed.Load())},
		{Name: "adapipe_serve_cost_store_entries", Help: "entries currently held by the shared cost store", Value: float64(cs.Entries)},
		{Name: "adapipe_serve_cost_store_hits_total", Help: "cost-store lookups served by a stored entry", Value: float64(cs.Hits)},
		{Name: "adapipe_serve_cost_store_misses_total", Help: "cost-store lookups that led a fresh solve", Value: float64(cs.Misses)},
		{Name: "adapipe_serve_cost_store_shared_total", Help: "cost-store lookups that shared another planner's in-flight solve", Value: float64(cs.Shared)},
		{Name: "adapipe_serve_cost_store_evictions_total", Help: "cost-store entries evicted by the LRU bound", Value: float64(cs.Evictions)},
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeResult(w, "", errResult(http.StatusMethodNotAllowed, request.ErrCodeMethodNotAllowed, "healthz accepts GET only"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeResult(w, "", errResult(http.StatusMethodNotAllowed, request.ErrCodeMethodNotAllowed, "metrics accepts GET only"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, obs.RenderProm(s.samples()))
	fmt.Fprint(w, obs.RenderPromHistogram("adapipe_serve_request_seconds",
		"End-to-end plan/simulate request latency.", s.histRequest.Snapshot()))
	fmt.Fprint(w, obs.RenderPromHistogram("adapipe_serve_search_seconds",
		"Planner search wall time per cold request.", s.histSearch.Snapshot()))
	fmt.Fprint(w, obs.RenderPromHistogram("adapipe_serve_queue_seconds",
		"Admission-gate queue wait per search.", s.histQueue.Snapshot()))
	fmt.Fprint(w, obs.RenderPromHistogram("adapipe_serve_cache_lookup_seconds",
		"Plan-cache lookup latency.", s.histCache.Snapshot()))
}

// handleTrace serves GET /v1/trace/{id}: the stored trace of a recent
// request, rendered as Chrome trace-event JSON. Repeated fetches of one id
// return byte-identical documents (the trace is immutable once stored and
// the renderer's ordering is deterministic).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeResult(w, "", errResult(http.StatusMethodNotAllowed, request.ErrCodeMethodNotAllowed, "trace accepts GET only"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	tr, ok := s.traces.Get(id)
	if id == "" || !ok {
		s.writeResult(w, "", errResult(http.StatusNotFound, request.ErrCodeNotFound, "unknown trace id (the ring keeps the most recent traces only)"))
		return
	}
	body, err := tr.Chrome()
	if err != nil {
		s.writeResult(w, "", errResult(http.StatusInternalServerError, request.ErrCodeInternal, err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// planEndpoint describes POST /v1/plan: the request is answered from the
// cache when its canonical hash is known, otherwise it coalesces into (or
// leads) the one search for that hash.
func (s *Server) planEndpoint() endpoint[request.PlanRequest] {
	return endpoint[request.PlanRequest]{
		parse:     request.ParsePlanRequest,
		hash:      request.PlanRequest.Hash,
		accepted:  &s.planReqs,
		cacheable: true,
		header:    headerCache,
		run:       s.runPlan,
	}
}

// runPlan is the plan leader's body: the search itself, then response
// encoding. The leader's tracer rides the search context down through
// core.PlanContext to the knapsack solvers.
func (s *Server) runPlan(ctx context.Context, tr *obs.Tracer, req request.PlanRequest, hash string) result {
	searchStart := s.clock()
	plan, err := s.planFn(obs.WithTracer(ctx, tr), req)
	s.observeSearch(tr, searchStart)
	if err != nil {
		return s.searchErr(ctx, err).result()
	}
	s.knapsackRuns.Add(int64(plan.Search.KnapsackRuns))
	encStart := s.clock()
	resp, err := request.NewPlanResponse(envelope(hash, req.Method), plan)
	var body []byte
	if err == nil {
		body, err = resp.Encode()
	}
	if err != nil {
		return errResult(http.StatusInternalServerError, request.ErrCodeInternal, err.Error())
	}
	tr.Add("encode", obs.CatPhase, encStart, s.clock())
	return result{status: http.StatusOK, body: body}
}

// simulateEndpoint describes POST /v1/simulate: the plan request schema,
// planned and then executed on the discrete-event simulator under the
// method's pipeline schedule. Simulation output depends on the full outcome
// (per-device series), so it bypasses the response cache; the admission gate
// and deadline still apply.
func (s *Server) simulateEndpoint() endpoint[request.PlanRequest] {
	return endpoint[request.PlanRequest]{
		parse:    request.ParsePlanRequest,
		hash:     request.PlanRequest.Hash,
		accepted: &s.simReqs,
		header:   headerCache,
		run:      s.runSimulate,
	}
}

// runSimulate plans and simulates one request. A search that ran (or failed
// as a search) reports X-Adapipe-Cache: miss; every other failure carries no
// disposition.
func (s *Server) runSimulate(ctx context.Context, tr *obs.Tracer, req request.PlanRequest, hash string) result {
	rs, err := req.Resolve()
	if err != nil {
		return errResult(http.StatusBadRequest, request.ErrCodeInvalidRequest, err.Error())
	}
	s.searches.Add(1)
	searchStart := s.clock()
	outcome := rs.Evaluate(obs.WithTracer(ctx, tr))
	s.observeSearch(tr, searchStart)
	if outcome.Err != nil {
		res := s.searchErr(ctx, outcome.Err).result()
		res.disposition = CacheMiss
		return res
	}
	if outcome.Plan == nil {
		return errResult(http.StatusUnprocessableEntity, request.ErrCodeInfeasible, "configuration is infeasible (OOM) under the requested method")
	}
	s.knapsackRuns.Add(int64(outcome.Plan.Search.KnapsackRuns))
	encStart := s.clock()
	planJSON, err := json.Marshal(outcome.Plan)
	if err != nil {
		return errResult(http.StatusInternalServerError, request.ErrCodeInternal, err.Error())
	}
	resp := request.SimulateResponse{
		ResponseEnvelope: envelope(hash, rs.Method.Name),
		Schedule:         rs.Method.Schedule.String(),
		IterSec:          outcome.Sim.IterTime,
		BubbleRatio:      outcome.Sim.BubbleRatio(),
		PeakBytes:        outcome.Sim.PeakMem,
		OOM:              outcome.OOM,
		Plan:             planJSON,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return errResult(http.StatusInternalServerError, request.ErrCodeInternal, err.Error())
	}
	tr.Add("encode", obs.CatPhase, encStart, s.clock())
	return result{status: http.StatusOK, body: body, disposition: CacheMiss}
}

// observeSearch closes a request's "search" phase, which began at start: the
// span and the search-latency histogram, whose sum is the search-wall counter.
func (s *Server) observeSearch(tr *obs.Tracer, start time.Time) {
	end := s.clock()
	tr.Add("search", obs.CatPhase, start, end)
	s.histSearch.Observe(end.Sub(start))
}

// httpError carries a failure's HTTP mapping: the status, the stable
// machine-readable code of the canonical error envelope, and the
// human-readable message.
type httpError struct {
	status int
	code   string
	msg    string
}

// result renders the failure as a ready-to-write result.
func (e *httpError) result() result { return errResult(e.status, e.code, e.msg) }

// logRequest emits one structured record per request. The trace ID is the
// join key: a slow request in the log leads straight to its span breakdown
// via /v1/trace/{id}.
func (s *Server) logRequest(r *http.Request, id, hash, disposition string, status int, dur time.Duration) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("trace", id),
		slog.String("hash", hash),
		slog.String("cache", disposition),
		slog.Int("status", status),
		slog.Duration("dur", dur),
	)
}

// envelope is the one response envelope: every success body leads with the
// schema version, the canonical hash the pipeline derived when it decoded the
// request, and the request's method.
func envelope(hash, method string) request.ResponseEnvelope {
	return request.ResponseEnvelope{Version: request.Version, RequestHash: hash, Method: method}
}

// search is the one planner path: build the planner the request names, point
// it at the shared cost store, count the search and run it under ctx. It
// returns a nil planner when the request names no valid planner. A
// fingerprint failure of the store just leaves the planner solving privately
// — plans are identical either way, so that error is deliberately dropped.
func (s *Server) search(ctx context.Context, req request.PlanRequest) (*core.Planner, *core.Plan, error) {
	pl, err := req.NewPlanner()
	if err != nil {
		return nil, nil, err
	}
	if s.costs != nil {
		_ = pl.SetCostSource(s.costs)
	}
	s.searches.Add(1)
	plan, err := pl.PlanContext(ctx)
	return pl, plan, err
}

// searchPlan is the production planFn: search, keeping the plan.
func (s *Server) searchPlan(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
	_, plan, err := s.search(ctx, req)
	return plan, err
}

// searchErr maps a failed search onto a status and canonical code: deadline →
// 504 timeout, shutdown → 503 shutting_down, anything else (OOM, invalid
// config the planner rejected) → 422 infeasible.
func (s *Server) searchErr(ctx context.Context, err error) *httpError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{http.StatusGatewayTimeout, request.ErrCodeTimeout, "search exceeded the request deadline"}
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		return &httpError{http.StatusServiceUnavailable, request.ErrCodeShuttingDown, "server shutting down"}
	default:
		return &httpError{http.StatusUnprocessableEntity, request.ErrCodeInfeasible, err.Error()}
	}
}

// errResult builds a failed result carrying the canonical error envelope
// {"error": {"code", "message", "status"}} — the one failure shape every
// /v1/* endpoint speaks.
func errResult(status int, code, msg string) result {
	return result{status: status, body: request.NewErrorResponse(code, msg, status).Encode()}
}

// writeResult emits a result, with the request-hash header once the request
// got as far as hashing. Error statuses are counted once here, whichever
// path produced them.
func (s *Server) writeResult(w http.ResponseWriter, hash string, res result) {
	if res.status < 200 || res.status >= 300 {
		s.errorCount.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	if hash != "" {
		w.Header().Set(headerHash, hash)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}
