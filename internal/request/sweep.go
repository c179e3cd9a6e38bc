package request

import (
	"encoding/json"
	"fmt"
	"math"
)

// MaxSweepPoints bounds the server-side grid expansion of one sweep request.
// The cap is validated at normalization time so an oversized grid is an
// invalid_request, never a half-planned response.
const MaxSweepPoints = 256

// SweepAxes lists the per-field value grids of a sweep. A nil axis keeps the
// base request's value; a present-but-empty axis is an error (an explicitly
// empty grid has no meaning — reject it rather than silently planning
// nothing). Axis values are validated per expanded point, not per axis: a
// value that yields an invalid point (say a strategy exceeding the cluster)
// fails that point only, so one bad grid line never sinks the sweep.
type SweepAxes struct {
	Cluster       []string  `json:"cluster,omitempty"`
	Method        []string  `json:"method,omitempty"`
	TP            []int     `json:"tp,omitempty"`
	PP            []int     `json:"pp,omitempty"`
	DP            []int     `json:"dp,omitempty"`
	SeqLen        []int     `json:"seq_len,omitempty"`
	GlobalBatch   []int     `json:"global_batch,omitempty"`
	MicroBatch    []int     `json:"micro_batch,omitempty"`
	MemoryReserve []float64 `json:"memory_reserve,omitempty"`
}

// sweepAxis is one row of the axis table: the axis's JSON name, the number
// of values a SweepAxes lists on it (-1 when the axis is absent), and how its
// k-th value lands in a grid point.
type sweepAxis struct {
	name string
	len  func(a *SweepAxes) int
	set  func(a *SweepAxes, k int, pt *PlanRequest)
}

// axis builds a table row from the axis's values and the point field they
// substitute.
func axis[T any](name string, values func(*SweepAxes) []T, field func(*PlanRequest) *T) sweepAxis {
	return sweepAxis{
		name: name,
		len: func(a *SweepAxes) int {
			if v := values(a); v != nil {
				return len(v)
			}
			return -1
		},
		set: func(a *SweepAxes, k int, pt *PlanRequest) { *field(pt) = values(a)[k] },
	}
}

// sweepAxes is the one axis table, in SweepAxes field order, which is the
// expansion order: cluster outermost, memory_reserve varying fastest. grid,
// the empty-axis check of SweepRequest.Normalize and Expand all read it.
var sweepAxes = [...]sweepAxis{
	axis("cluster", func(a *SweepAxes) []string { return a.Cluster }, func(r *PlanRequest) *string { return &r.Cluster }),
	axis("method", func(a *SweepAxes) []string { return a.Method }, func(r *PlanRequest) *string { return &r.Method }),
	axis("tp", func(a *SweepAxes) []int { return a.TP }, func(r *PlanRequest) *int { return &r.TP }),
	axis("pp", func(a *SweepAxes) []int { return a.PP }, func(r *PlanRequest) *int { return &r.PP }),
	axis("dp", func(a *SweepAxes) []int { return a.DP }, func(r *PlanRequest) *int { return &r.DP }),
	axis("seq_len", func(a *SweepAxes) []int { return a.SeqLen }, func(r *PlanRequest) *int { return &r.SeqLen }),
	axis("global_batch", func(a *SweepAxes) []int { return a.GlobalBatch }, func(r *PlanRequest) *int { return &r.GlobalBatch }),
	axis("micro_batch", func(a *SweepAxes) []int { return a.MicroBatch }, func(r *PlanRequest) *int { return &r.MicroBatch }),
	axis("memory_reserve", func(a *SweepAxes) []float64 { return a.MemoryReserve }, func(r *PlanRequest) *float64 { return &r.MemoryReserve }),
}

// grid returns the expansion size: the product of axis lengths, absent axes
// counting 1. The product saturates at math.MaxInt32, so no grid of long
// axes can wrap around to a size under MaxSweepPoints.
func (a SweepAxes) grid() int {
	n := int64(1)
	for _, ax := range sweepAxes {
		n = min(n*int64(max(ax.len(&a), 1)), math.MaxInt32)
	}
	return int(n)
}

// SweepRequest is one grid-planning request, schema version 1: a base
// PlanRequest plus axes of values to substitute over it. The base must itself
// be a valid plan request — axes override its fields point by point, in the
// fixed expansion order cluster, method, tp, pp, dp, seq_len, global_batch,
// micro_batch, memory_reserve (last axis varies fastest). TopK > 0 truncates
// the ranked summary; 0 ranks every feasible point.
type SweepRequest struct {
	// Version is the schema version; 0 means "current" and normalizes to 1.
	Version int `json:"version"`
	// Base is the plan request every grid point starts from.
	Base PlanRequest `json:"base"`
	// Axes are the value grids substituted over the base.
	Axes SweepAxes `json:"axes"`
	// TopK bounds the ranking length (0 = unbounded).
	TopK int `json:"top_k,omitempty"`
}

// Normalize applies schema defaults and validates the sweep shape: the base
// request, every axis (present axes must be non-empty), the grid-size cap and
// TopK. Axis values themselves are validated per expanded point.
func (r SweepRequest) Normalize() (SweepRequest, error) {
	if err := schemaVersion(&r.Version); err != nil {
		return r, err
	}
	base, err := r.Base.Normalize()
	if err != nil {
		return r, fmt.Errorf("request: sweep base: %w", err)
	}
	r.Base = base
	for _, ax := range sweepAxes {
		if ax.len(&r.Axes) == 0 {
			return r, fmt.Errorf("request: sweep axis %q is empty (omit the axis to keep the base value)", ax.name)
		}
	}
	if n := r.Axes.grid(); n > MaxSweepPoints {
		return r, fmt.Errorf("request: sweep expands to %d points, cap is %d", n, MaxSweepPoints)
	}
	if r.TopK < 0 {
		return r, fmt.Errorf("request: top_k must be >= 0, got %d", r.TopK)
	}
	return r, nil
}

// ParseSweepRequest decodes and validates a sweep request from its JSON
// encoding. Unknown fields and trailing data are rejected, as for
// ParsePlanRequest.
func ParseSweepRequest(data []byte) (SweepRequest, error) {
	return parseStrict[SweepRequest](data, "sweep")
}

// Expand materializes the grid in the fixed expansion order. The returned
// points are raw substitutions over the normalized base — each point is
// normalized (and possibly rejected) individually by the caller, so one
// invalid combination fails that point alone. Point i reads its axis values
// off i as an odometer whose last axis turns fastest.
func (r SweepRequest) Expand() ([]PlanRequest, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	points := make([]PlanRequest, n.Axes.grid())
	for i := range points {
		points[i] = n.Base
		for a, rest := len(sweepAxes)-1, i; a >= 0; a-- {
			if l := sweepAxes[a].len(&n.Axes); l > 0 {
				sweepAxes[a].set(&n.Axes, rest%l, &points[i])
				rest /= l
			}
		}
	}
	return points, nil
}

// Canonical returns the canonical JSON encoding of the normalized sweep,
// as PlanRequest.Canonical does for a plan request.
func (r SweepRequest) Canonical() ([]byte, error) { return canonical(r) }

// Hash returns the sweep's content identity: the lowercase-hex SHA-256 of its
// canonical encoding — the key the daemon's response cache and request
// coalescing use for whole sweeps.
func (r SweepRequest) Hash() (string, error) { return hash(r) }

// SweepPointResult is the outcome of one grid point: the substituted request,
// and either its plan (with the content hash and modeled iteration time) or a
// canonical per-point error. Exactly one of Plan and Error is set.
type SweepPointResult struct {
	// Index is the point's position in the fixed expansion order.
	Index int `json:"index"`
	// Request is the substituted (raw, pre-normalization) plan request.
	Request PlanRequest `json:"request"`
	// RequestHash is the point's canonical hash — the identity its plan was
	// cached and deduplicated under. Empty when the point failed before
	// normalization.
	RequestHash string `json:"request_hash,omitempty"`
	// IterSec is the plan's modeled steady-state iteration time in seconds,
	// the ranking key.
	IterSec float64 `json:"iter_sec,omitempty"`
	// Plan embeds the point's plan exactly as /v1/plan would return it: a
	// single-point sweep yields byte-identical plan bytes to /v1/plan.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Error carries the point's canonical failure when planning it failed.
	Error *ErrorInfo `json:"error,omitempty"`
}

// SweepStats counts the server-side work of one sweep — the amortization
// evidence: Planned (searches actually run) plus Deduped (duplicate grid
// points served by copying an earlier point) plus Cached (points served from
// the daemon's response cache) equals Points minus Failed.
type SweepStats struct {
	Points  int `json:"points"`
	Planned int `json:"planned"`
	Deduped int `json:"deduped"`
	Cached  int `json:"cached"`
	Failed  int `json:"failed"`
}

// SweepResponse is the versioned reply to a sweep request: every point's
// outcome in expansion order, the feasible points ranked by modeled iteration
// time, and the work counters. The envelope's RequestHash is the sweep's own
// content hash; Method echoes the base request's method (points may override
// it via the method axis).
type SweepResponse struct {
	ResponseEnvelope
	// Points holds one result per grid point, in expansion order.
	Points []SweepPointResult `json:"points"`
	// Ranking lists the indices of feasible points sorted by ascending
	// IterSec (ties broken by index), truncated to TopK when TopK > 0.
	Ranking []int `json:"ranking"`
	// Stats counts the planning work the sweep actually performed.
	Stats SweepStats `json:"stats"`
}

// Encode marshals the response.
func (sr SweepResponse) Encode() ([]byte, error) { return json.Marshal(sr) }

// ParseSweepResponse decodes a sweep response, checking the schema version.
func ParseSweepResponse(data []byte) (SweepResponse, error) {
	return parseResponse[SweepResponse](data, "sweep")
}

// PlanIterSec extracts the modeled steady-state iteration time from a plan's
// stable JSON encoding — the sweep's ranking key, read without decoding the
// full plan.
func PlanIterSec(plan json.RawMessage) (float64, error) {
	var p struct {
		ModeledTotalSec float64 `json:"modeled_total_sec"`
	}
	if err := json.Unmarshal(plan, &p); err != nil {
		return 0, fmt.Errorf("request: reading modeled_total_sec: %w", err)
	}
	return p.ModeledTotalSec, nil
}
