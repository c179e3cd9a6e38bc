package request

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// grid returns the expansion size: the product of axis lengths, absent axes
// counting 1.
func (a SweepAxes) grid() int {
	n := 1
	for _, l := range []int{
		len(a.Cluster), len(a.Method), len(a.TP), len(a.PP), len(a.DP),
		len(a.SeqLen), len(a.GlobalBatch), len(a.MicroBatch), len(a.MemoryReserve),
	} {
		if l > 0 {
			n *= l
		}
	}
	return n
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
	if r.Version == 0 {
		r.Version = Version
	}
	if r.Version != Version {
		return r, fmt.Errorf("request: unsupported schema version %d (this build speaks %d)", r.Version, Version)
	}
	base, err := r.Base.Normalize()
	if err != nil {
		return r, fmt.Errorf("request: sweep base: %w", err)
	}
	r.Base = base
	for _, ax := range []struct {
		name    string
		present bool
		empty   bool
	}{
		{"cluster", r.Axes.Cluster != nil, len(r.Axes.Cluster) == 0},
		{"method", r.Axes.Method != nil, len(r.Axes.Method) == 0},
		{"tp", r.Axes.TP != nil, len(r.Axes.TP) == 0},
		{"pp", r.Axes.PP != nil, len(r.Axes.PP) == 0},
		{"dp", r.Axes.DP != nil, len(r.Axes.DP) == 0},
		{"seq_len", r.Axes.SeqLen != nil, len(r.Axes.SeqLen) == 0},
		{"global_batch", r.Axes.GlobalBatch != nil, len(r.Axes.GlobalBatch) == 0},
		{"micro_batch", r.Axes.MicroBatch != nil, len(r.Axes.MicroBatch) == 0},
		{"memory_reserve", r.Axes.MemoryReserve != nil, len(r.Axes.MemoryReserve) == 0},
	} {
		if ax.present && ax.empty {
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
// invalid combination fails that point alone.
func (r SweepRequest) Expand() ([]PlanRequest, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	clusters := orStrings(n.Axes.Cluster, n.Base.Cluster)
	methods := orStrings(n.Axes.Method, n.Base.Method)
	tps := orInts(n.Axes.TP, n.Base.TP)
	pps := orInts(n.Axes.PP, n.Base.PP)
	dps := orInts(n.Axes.DP, n.Base.DP)
	seqs := orInts(n.Axes.SeqLen, n.Base.SeqLen)
	gbs := orInts(n.Axes.GlobalBatch, n.Base.GlobalBatch)
	mbs := orInts(n.Axes.MicroBatch, n.Base.MicroBatch)
	reserves := orFloats(n.Axes.MemoryReserve, n.Base.MemoryReserve)

	points := make([]PlanRequest, 0, n.Axes.grid())
	for _, cl := range clusters {
		for _, m := range methods {
			for _, tp := range tps {
				for _, pp := range pps {
					for _, dp := range dps {
						for _, sl := range seqs {
							for _, gb := range gbs {
								for _, mb := range mbs {
									for _, mr := range reserves {
										pt := n.Base
										pt.Cluster = cl
										pt.Method = m
										pt.TP = tp
										pt.PP = pp
										pt.DP = dp
										pt.SeqLen = sl
										pt.GlobalBatch = gb
										pt.MicroBatch = mb
										pt.MemoryReserve = mr
										points = append(points, pt)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

func orStrings(axis []string, base string) []string {
	if axis == nil {
		return []string{base}
	}
	return axis
}

func orInts(axis []int, base int) []int {
	if axis == nil {
		return []int{base}
	}
	return axis
}

func orFloats(axis []float64, base float64) []float64 {
	if axis == nil {
		return []float64{base}
	}
	return axis
}

// Canonical returns the canonical JSON encoding of the normalized sweep,
// mirroring PlanRequest.Canonical.
func (r SweepRequest) Canonical() ([]byte, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(n)
	if err != nil {
		return nil, err
	}
	return CanonicalizeJSON(raw)
}

// Hash returns the sweep's content identity: the lowercase-hex SHA-256 of its
// canonical encoding — the key the daemon's response cache and request
// coalescing use for whole sweeps.
func (r SweepRequest) Hash() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

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
	var sr SweepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return sr, fmt.Errorf("request: decoding sweep response: %w", err)
	}
	if sr.Version != Version {
		return sr, fmt.Errorf("request: unsupported response version %d (this build speaks %d)", sr.Version, Version)
	}
	return sr, nil
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
