package adapipe

import (
	"context"

	"adapipe/internal/request"
)

// Versioned request API: every entry point — the adapipe CLI and the adapiped
// daemon — constructs planners from one PlanRequest
// schema, so the flag surface and the HTTP surface cannot drift. Requests have
// a canonical (sorted-key, deterministic) JSON encoding and a SHA-256 content
// hash over it, which is the identity the daemon's plan cache keys on.
type (
	// PlanRequest is one plan-search request (schema version RequestVersion).
	PlanRequest = request.PlanRequest
	// ResolvedRequest is a PlanRequest with every name looked up (method,
	// model, cluster, strategy, training config, options) — what
	// PlanRequest.Resolve returns and Evaluate runs.
	ResolvedRequest = request.Resolved
	// PlanResponse is the versioned reply to a plan request; its Plan field
	// embeds the plan's deterministic JSON verbatim.
	PlanResponse = request.PlanResponse
	// SimulateResponse is the versioned reply to a simulate request.
	SimulateResponse = request.SimulateResponse
	// ReplanRequest is one straggler-driven replanning request: a plan
	// request identifying the search space plus the observed per-stage
	// compute-cost multipliers.
	ReplanRequest = request.ReplanRequest
	// ReplanResponse is the versioned reply to a replan request; its Plan
	// field embeds the plan to run next, and Incremental reports whether the
	// re-search warm-started from the previous search's partition-DP memo.
	ReplanResponse = request.ReplanResponse
	// SweepRequest is one grid-sweep request: a base PlanRequest plus the
	// axes to vary. The server expands the grid (bounded by MaxSweepPoints),
	// plans every point against the shared cost store, and ranks the results.
	SweepRequest = request.SweepRequest
	// SweepAxes lists the per-field value lists a sweep varies.
	SweepAxes = request.SweepAxes
	// SweepResponse is the versioned reply to a sweep request.
	SweepResponse = request.SweepResponse
	// SweepPointResult is one expanded grid point's outcome within a sweep.
	SweepPointResult = request.SweepPointResult
	// SweepStats summarizes how a sweep's points were satisfied (planned,
	// cached, deduplicated, failed).
	SweepStats = request.SweepStats
	// ErrorInfo is the machine-readable error payload every /v1 endpoint
	// returns on failure: a stable code, a human message and the HTTP status.
	ErrorInfo = request.ErrorInfo
	// ErrorResponse is the canonical failure envelope {"error": {...}}.
	ErrorResponse = request.ErrorResponse
)

// RequestVersion is the current request/response schema version.
const RequestVersion = request.Version

// MaxSweepPoints bounds the server-side grid expansion of one sweep request.
const MaxSweepPoints = request.MaxSweepPoints

// ParsePlanRequest decodes and validates a request from JSON: unknown fields
// and trailing data are rejected, defaults are applied, and the result is
// normalized (two requests that normalize equal are the same search).
func ParsePlanRequest(data []byte) (PlanRequest, error) { return request.ParsePlanRequest(data) }

// ParsePlanResponse decodes a plan response, checking the schema version.
func ParsePlanResponse(data []byte) (PlanResponse, error) { return request.ParsePlanResponse(data) }

// ParseReplanRequest decodes and validates a replan request from JSON with
// the same strictness as ParsePlanRequest.
func ParseReplanRequest(data []byte) (ReplanRequest, error) { return request.ParseReplanRequest(data) }

// ParseReplanResponse decodes a replan response, checking the schema version.
func ParseReplanResponse(data []byte) (ReplanResponse, error) {
	return request.ParseReplanResponse(data)
}

// ParseSweepRequest decodes and validates a sweep request from JSON with the
// same strictness as ParsePlanRequest; the base request and every axis value
// are validated before any planning starts.
func ParseSweepRequest(data []byte) (SweepRequest, error) { return request.ParseSweepRequest(data) }

// ParseSweepResponse decodes a sweep response, checking the schema version.
func ParseSweepResponse(data []byte) (SweepResponse, error) {
	return request.ParseSweepResponse(data)
}

// ParseErrorResponse decodes the canonical {"error": {...}} failure envelope
// that every /v1 endpoint returns on non-2xx statuses.
func ParseErrorResponse(data []byte) (ErrorResponse, error) {
	return request.ParseErrorResponse(data)
}

// NewPlannerFromRequest constructs the planner a request describes.
func NewPlannerFromRequest(r PlanRequest) (*Planner, error) {
	return r.NewPlanner()
}

// PlanContext runs the request's search under ctx. Cancellation and deadlines
// propagate into the search: the planner stops promptly and returns ctx.Err()
// instead of a stale plan.
func PlanContext(ctx context.Context, r PlanRequest) (*Plan, error) {
	pl, err := r.NewPlanner()
	if err != nil {
		return nil, err
	}
	return pl.PlanContext(ctx)
}

// SimulateContext plans the request and simulates it under its method's
// pipeline schedule, with ctx threaded through the search. The returned error
// reports an invalid request; search and simulation failures (including
// cancellation) are reported in Outcome.Err, matching Evaluate.
func SimulateContext(ctx context.Context, r PlanRequest) (Outcome, error) {
	return r.Evaluate(ctx)
}
