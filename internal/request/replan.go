package request

import (
	"encoding/json"
	"fmt"
	"math"
)

// ReplanRequest is one straggler-driven replanning request, schema version
// 1: the plan request identifying the search space (and, via its hash, the
// daemon's warm planner for it) plus the observed per-stage compute-cost
// multipliers. Scale must carry exactly request.PP entries, each finite and
// > 0 — a scale of 1 means "stage runs at nominal speed".
type ReplanRequest struct {
	// Version is the schema version; 0 means "current" and normalizes to 1.
	Version int `json:"version"`
	// Request identifies the search the incumbent plan came from. Its hash
	// is the identity the daemon keys warm planners on, so two replans for
	// one training run always reach the same incremental state.
	Request PlanRequest `json:"request"`
	// Scale holds the per-stage forward/backward multipliers, indexed by
	// pipeline stage.
	Scale []float64 `json:"scale"`
}

// Normalize applies schema defaults and validates every field, returning
// the normalized copy. Like PlanRequest.Normalize it is idempotent.
func (r ReplanRequest) Normalize() (ReplanRequest, error) {
	if err := schemaVersion(&r.Version); err != nil {
		return r, err
	}
	n, err := r.Request.Normalize()
	if err != nil {
		return r, err
	}
	r.Request = n
	if len(r.Scale) != n.PP {
		return r, fmt.Errorf("request: scale has %d entries, strategy has %d pipeline stages", len(r.Scale), n.PP)
	}
	for s, v := range r.Scale {
		if !(v > 0) || math.IsInf(v, 1) {
			return r, fmt.Errorf("request: stage %d scale %g, want a finite value > 0", s, v)
		}
	}
	return r, nil
}

// ParseReplanRequest decodes and validates a replan request from its JSON
// encoding. Unknown fields and trailing data are rejected, as for
// ParsePlanRequest.
func ParseReplanRequest(data []byte) (ReplanRequest, error) {
	return parseStrict[ReplanRequest](data, "replan")
}

// ReplanResponse is the versioned reply to a replan request: the adoption
// verdict, the search-effort evidence for the fast path, and the plan the
// caller should run next (the re-searched plan when Adopted, otherwise the
// repriced incumbent — replanning never makes things worse).
type ReplanResponse struct {
	// ResponseEnvelope carries the inner plan request's content hash — the
	// key the daemon's warm-planner store used — and its method label.
	ResponseEnvelope
	// Adopted reports whether the re-searched plan's simulated iteration
	// strictly beat the repriced incumbent's.
	Adopted bool `json:"adopted"`
	// Incremental reports whether the re-search warm-started from the
	// planner's previous search. True even on the first replan for a hash:
	// the cold search that seeds the warm planner installs the partition-DP
	// memo the replan then reuses (the X-Adapipe-Replan header is what
	// distinguishes a seeding request from a fully warm one).
	Incremental bool `json:"incremental"`
	// InvalidatedIsoClasses and WarmStartCells quantify the incremental
	// search: iso-classes repriced by the scale change, and DP cells reused
	// from the incumbent search's memo. Both zero when Incremental is false.
	InvalidatedIsoClasses int `json:"invalidated_iso_classes"`
	WarmStartCells        int `json:"warm_start_cells"`
	// OldIterSec and NewIterSec are the simulated 1F1B iteration times of
	// the repriced incumbent and the re-searched plan.
	OldIterSec float64 `json:"old_iter_sec"`
	NewIterSec float64 `json:"new_iter_sec"`
	// Plan embeds the deterministic JSON of the plan to run next.
	Plan json.RawMessage `json:"plan"`
}

// Encode marshals the response.
func (rr ReplanResponse) Encode() ([]byte, error) { return json.Marshal(rr) }

// ParseReplanResponse decodes a replan response, checking the schema
// version.
func ParseReplanResponse(data []byte) (ReplanResponse, error) {
	return parseResponse[ReplanResponse](data, "replan")
}
