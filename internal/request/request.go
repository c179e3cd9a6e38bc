// Package request defines the versioned, machine-readable planning API every
// entry point shares: the adapipe CLI and the adapiped daemon both construct
// planners from one PlanRequest schema, so the flag surface and the HTTP
// surface can never drift. Requests have a canonical
// (sorted-key, deterministic) JSON encoding and a content hash over it — the
// identity the daemon's plan cache and request coalescing key on.
package request

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// Version is the current request/response schema version. Consumers must
// reject versions they do not understand instead of guessing.
const Version = 1

// PlanRequest is one plan-search request, schema version 1. The zero values
// of Version, Cluster, Method, MicroBatch and TinyLayers are normalized to
// their defaults by Normalize (and by ParsePlanRequest); everything else is
// required. Two requests that normalize to the same value are the same
// search — Hash is defined over the normalized canonical encoding.
type PlanRequest struct {
	// Version is the schema version; 0 means "current" and normalizes to 1.
	Version int `json:"version"`
	// Model selects the architecture: "gpt3", "llama2" or "tiny".
	Model string `json:"model"`
	// TinyLayers is the decoder-layer count of the tiny model (default 8).
	// It must be zero for the fixed-size paper models.
	TinyLayers int `json:"tiny_layers,omitempty"`
	// Cluster selects the hardware model: "a" (64×A100), "b" (256×Ascend
	// 910) or "b-large" (2048×Ascend 910). Default "a".
	Cluster string `json:"cluster"`
	// Method is an evaluation method label ("AdaPipe", "DAPPLE-Full", ...);
	// it fixes the recomputation mode, partitioning mode and pipeline
	// schedule. Default "AdaPipe".
	Method string `json:"method"`
	// TP, PP, DP form the 3D parallelism strategy.
	TP int `json:"tp"`
	PP int `json:"pp"`
	DP int `json:"dp"`
	// SeqLen is the sequence length in tokens.
	SeqLen int `json:"seq_len"`
	// GlobalBatch is the global batch size; MicroBatch the per-micro-batch
	// sample count (default 1, the paper's setting).
	GlobalBatch int `json:"global_batch"`
	MicroBatch  int `json:"micro_batch"`
	// MemoryReserve optionally overrides the fraction of device memory
	// withheld from the planner's budget, in (0, 1). Zero (or omitted)
	// keeps the evaluation default; omitempty keeps the canonical encoding
	// — and therefore every existing request hash — unchanged in that case.
	MemoryReserve float64 `json:"memory_reserve,omitempty"`
}

// The three size caps of a plan request. All are checked by Normalize, so
// plan, simulate, replan and every sweep point inherit them, and an oversized
// request is rejected before it allocates. maxTinyLayers is GPT-3's decoder
// count, the largest model the paper plans. maxScheduledMicroBatches bounds
// PP × micro-batches per replica, the forward (and again the backward)
// operations one simulated iteration schedules: at ≈ 108 B per scheduled
// operation, 2^18 of each is ≈ 54 MiB. maxMicroBatchTokens bounds
// micro_batch × seq_len, the b·s every activation shape term carries: under
// it the profile's byte terms fit int64 and its FLOP terms stay below 2^53,
// exact in float64, for every model served.
const (
	maxTinyLayers            = 96
	maxScheduledMicroBatches = 1 << 18
	maxMicroBatchTokens      = 1 << 17
)

// Normalize applies schema defaults and validates every field, returning the
// normalized copy. It is idempotent; Hash, Canonical and the planner
// constructors all normalize internally, so callers building requests by
// struct literal get defaults applied automatically.
func (r PlanRequest) Normalize() (PlanRequest, error) {
	if err := schemaVersion(&r.Version); err != nil {
		return r, err
	}
	switch r.Model {
	case "gpt3", "llama2":
		if r.TinyLayers != 0 {
			return r, fmt.Errorf("request: tiny_layers is only valid for model \"tiny\", got model %q", r.Model)
		}
	case "tiny":
		if r.TinyLayers == 0 {
			r.TinyLayers = 8
		}
		if r.TinyLayers < 1 || r.TinyLayers > maxTinyLayers {
			return r, fmt.Errorf("request: tiny_layers must be in [1, %d], got %d", maxTinyLayers, r.TinyLayers)
		}
	case "":
		return r, fmt.Errorf("request: model is required (gpt3, llama2 or tiny)")
	default:
		return r, fmt.Errorf("request: unknown model %q (want gpt3, llama2 or tiny)", r.Model)
	}
	if r.Cluster == "" {
		r.Cluster = "a"
	}
	switch r.Cluster {
	case "a", "b", "b-large":
	default:
		return r, fmt.Errorf("request: unknown cluster %q (want a, b or b-large)", r.Cluster)
	}
	if r.Method == "" {
		r.Method = "AdaPipe"
	}
	if _, err := baseline.MethodByName(r.Method); err != nil {
		return r, err
	}
	if err := (parallel.Strategy{TP: r.TP, PP: r.PP, DP: r.DP}).Validate(); err != nil {
		return r, err
	}
	if r.SeqLen < 1 {
		return r, fmt.Errorf("request: seq_len must be >= 1, got %d", r.SeqLen)
	}
	if r.MicroBatch == 0 {
		r.MicroBatch = 1
	}
	n, err := r.TrainingConfig().MicroBatches(r.Strategy())
	if err != nil {
		return r, err
	}
	if n > maxScheduledMicroBatches/r.PP {
		return r, fmt.Errorf("request: pp %d x %d micro-batches per replica exceeds the cap of %d", r.PP, n, maxScheduledMicroBatches)
	}
	if r.SeqLen > maxMicroBatchTokens/r.MicroBatch {
		return r, fmt.Errorf("request: micro_batch %d x seq_len %d exceeds the cap of %d tokens", r.MicroBatch, r.SeqLen, maxMicroBatchTokens)
	}
	if r.MemoryReserve < 0 || r.MemoryReserve >= 1 {
		return r, fmt.Errorf("request: memory_reserve must be in [0, 1), got %g", r.MemoryReserve)
	}
	return r, nil
}

// ParsePlanRequest decodes and validates a request from its JSON encoding.
// Unknown fields are rejected (a typoed field name must not silently select a
// default), and the returned request is normalized.
func ParsePlanRequest(data []byte) (PlanRequest, error) {
	return parseStrict[PlanRequest](data, "plan")
}

// normalizer is every request kind: a value whose Normalize yields its
// normalized copy.
type normalizer[R any] interface{ Normalize() (R, error) }

// schemaVersion is the one version rule of every request kind: 0 means the
// current version, and any other version than the current one is rejected.
func schemaVersion(v *int) error {
	if *v == 0 {
		*v = Version
	}
	if *v != Version {
		return fmt.Errorf("request: unsupported schema version %d (this build speaks %d)", *v, Version)
	}
	return nil
}

// parseStrict is the one strict decoder behind ParsePlanRequest,
// ParseReplanRequest and ParseSweepRequest: unknown fields and anything after
// the one JSON value are rejected, and the result is normalized. kind names
// the request in the error strings.
func parseStrict[R normalizer[R]](data []byte, kind string) (R, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r R
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("request: decoding %s request: %w", kind, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return r, fmt.Errorf("request: trailing data after %s request", kind)
	}
	return r.Normalize()
}

// canonical is the one canonical encoding behind PlanRequest.Canonical and
// SweepRequest.Canonical: the normalized request marshalled, then
// canonicalized by CanonicalizeJSON.
func canonical[R normalizer[R]](r R) ([]byte, error) {
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

// hash is the one content hash behind PlanRequest.Hash and
// SweepRequest.Hash: the lowercase-hex SHA-256 of the canonical encoding.
func hash[R normalizer[R]](r R) (string, error) {
	c, err := canonical(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// parseResponse is the one versioned response decoder behind
// ParsePlanResponse, ParseReplanResponse and ParseSweepResponse: a response
// of any other schema version than this build's is rejected. kind names the
// response in the error strings.
func parseResponse[R interface{ version() int }](data []byte, kind string) (R, error) {
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("request: decoding %s response: %w", kind, err)
	}
	if v := r.version(); v != Version {
		return r, fmt.Errorf("request: unsupported response version %d (this build speaks %d)", v, Version)
	}
	return r, nil
}

// Canonical returns the canonical JSON encoding of the normalized request:
// object keys sorted bytewise, no insignificant whitespace, default values
// materialized. Equal requests — including ones that differ only in field
// order, whitespace or elided defaults — have equal canonical bytes, which is
// what makes Hash a cache identity rather than a representation artifact.
func (r PlanRequest) Canonical() ([]byte, error) { return canonical(r) }

// Hash returns the request's content identity: the lowercase-hex SHA-256 of
// its canonical encoding.
func (r PlanRequest) Hash() (string, error) { return hash(r) }

// Strategy returns the 3D parallelism strategy of the request.
func (r PlanRequest) Strategy() parallel.Strategy {
	return parallel.Strategy{TP: r.TP, PP: r.PP, DP: r.DP}
}

// TrainingConfig returns the training configuration of the request.
func (r PlanRequest) TrainingConfig() parallel.Config {
	mb := r.MicroBatch
	if mb == 0 {
		mb = 1
	}
	return parallel.Config{GlobalBatch: r.GlobalBatch, MicroBatch: mb, SeqLen: r.SeqLen}
}

// Resolved is a request with every name looked up: the positional arguments
// of core.NewPlanner and baseline.EvaluateContext.
type Resolved struct {
	// Request is the normalized request everything else was read from.
	Request PlanRequest
	// Method is the evaluation method; Options already carries its
	// recomputation and partitioning modes.
	Method   baseline.Method
	Model    model.Config
	Cluster  hardware.Cluster
	Strategy parallel.Strategy
	Training parallel.Config
	// Options is the evaluation defaults with the method's modes and the
	// request's memory reserve applied.
	Options core.Options
}

// Resolve is the one request resolution: it normalizes once — the only
// Normalize call on any path from a request to a planner or an evaluation —
// and reads every field of the result from that normalized value. NewPlanner,
// Evaluate and the four getters below are all projections of it.
func (r PlanRequest) Resolve() (Resolved, error) {
	n, err := r.Normalize()
	if err != nil {
		return Resolved{}, err
	}
	m, err := baseline.MethodByName(n.Method)
	if err != nil {
		return Resolved{}, err
	}
	res := Resolved{Request: n, Method: m, Strategy: n.Strategy(), Training: n.TrainingConfig(), Options: core.DefaultOptions()}
	switch n.Model {
	case "gpt3":
		res.Model = model.GPT3_175B()
	case "llama2":
		res.Model = model.Llama2_70B()
	default: // "tiny"; Normalize already rejected everything else
		res.Model = model.Tiny(n.TinyLayers)
	}
	switch n.Cluster {
	case "a":
		res.Cluster = hardware.ClusterA()
	case "b":
		res.Cluster = hardware.ClusterB()
	default: // "b-large"
		res.Cluster = hardware.ClusterBLarge()
	}
	res.Options.Recompute = m.Recompute
	res.Options.Partition = m.Partition
	res.Options.IgnoreMemoryLimit = !m.Adaptive()
	if n.MemoryReserve > 0 {
		res.Options.MemoryReserve = n.MemoryReserve
	}
	return res, nil
}

// Evaluate plans the resolved request and simulates it under its method's
// pipeline schedule; failures of the search or the simulation (cancellation
// included) are reported in Outcome.Err.
func (res Resolved) Evaluate(ctx context.Context) baseline.Outcome {
	return baseline.EvaluateContext(ctx, res.Method, res.Model, res.Cluster, res.Strategy, res.Training, res.Options)
}

// Evaluate resolves the request and evaluates it; the error reports an invalid
// request only.
func (r PlanRequest) Evaluate(ctx context.Context) (baseline.Outcome, error) {
	res, err := r.Resolve()
	if err != nil {
		return baseline.Outcome{}, err
	}
	return res.Evaluate(ctx), nil
}

// ModelConfig resolves the architecture the request names.
func (r PlanRequest) ModelConfig() (model.Config, error) {
	res, err := r.Resolve()
	return res.Model, err
}

// ClusterConfig resolves the hardware model the request names.
func (r PlanRequest) ClusterConfig() (hardware.Cluster, error) {
	res, err := r.Resolve()
	return res.Cluster, err
}

// MethodConfig resolves the evaluation method the request names.
func (r PlanRequest) MethodConfig() (baseline.Method, error) {
	res, err := r.Resolve()
	return res.Method, err
}

// Options builds the planner options the request implies: the evaluation
// defaults with the method's recomputation and partitioning modes applied.
// The ignored ints exist only because the frozen bench/ passes a worker count.
func (r PlanRequest) Options(_ ...int) (core.Options, error) {
	res, err := r.Resolve()
	return res.Options, err
}

// NewPlanner constructs the planner the request describes — the single
// request-driven construction path the CLI, benchmarks and daemon share.
// The ignored ints exist only because the frozen bench/ passes a worker count.
func (r PlanRequest) NewPlanner(_ ...int) (*core.Planner, error) {
	res, err := r.Resolve()
	if err != nil {
		return nil, err
	}
	return core.NewPlanner(res.Model, res.Cluster, res.Strategy, res.Training, res.Options)
}

// ResponseEnvelope is the shared leading section of every v1 success
// response: the schema version, the content hash of the normalized request
// that produced it, and the normalized method label. Embedding it first keeps
// the three fields leading every response body, so clients can decode the
// envelope alone to verify version and routing before touching the payload.
type ResponseEnvelope struct {
	// Version is the schema version of this response.
	Version int `json:"version"`
	// RequestHash is the canonical hash of the request that produced the
	// payload — the daemon's cache key, echoed so clients can verify routing.
	RequestHash string `json:"request_hash"`
	// Method echoes the normalized method label of the underlying request.
	Method string `json:"method"`
}

// version is the schema version parseResponse checks.
func (e ResponseEnvelope) version() int { return e.Version }

// NewResponseEnvelope assembles the envelope for a normalized request.
func NewResponseEnvelope(r PlanRequest) (ResponseEnvelope, error) {
	n, err := r.Normalize()
	if err != nil {
		return ResponseEnvelope{}, err
	}
	hash, err := n.Hash()
	if err != nil {
		return ResponseEnvelope{}, err
	}
	return ResponseEnvelope{Version: n.Version, RequestHash: hash, Method: n.Method}, nil
}

// PlanResponse is the versioned reply to a plan request. Its encoding is
// deterministic (the embedded plan bytes come from the plan's own
// deterministic serialization), so cached replies are byte-identical to cold
// ones and a response can itself be content-addressed.
type PlanResponse struct {
	ResponseEnvelope
	// Plan is the plan in its stable execution-engine JSON encoding,
	// embedded verbatim: extracting this field yields exactly the bytes
	// `adapipe -o plan.json` writes for the same request.
	Plan json.RawMessage `json:"plan"`
}

// NewPlanResponse assembles the response for a solved request under the
// envelope of the request that produced it.
func NewPlanResponse(env ResponseEnvelope, p *core.Plan) (PlanResponse, error) {
	planJSON, err := json.Marshal(p)
	return PlanResponse{ResponseEnvelope: env, Plan: planJSON}, err
}

// Encode returns the response's deterministic JSON encoding.
func (pr PlanResponse) Encode() ([]byte, error) { return json.Marshal(pr) }

// ParsePlanResponse decodes a response, checking the schema version.
func ParsePlanResponse(data []byte) (PlanResponse, error) {
	return parseResponse[PlanResponse](data, "plan")
}

// SimulateResponse is the versioned reply to a simulate request: the plan
// plus its simulated execution under the method's pipeline schedule.
type SimulateResponse struct {
	ResponseEnvelope
	// Schedule names the pipeline mechanism simulated ("1f1b", "gpipe",
	// "chimera" or "chimerad").
	Schedule string `json:"schedule"`
	// IterSec is the simulated iteration time in seconds; BubbleRatio the
	// idle share of device time.
	IterSec     float64 `json:"iter_sec"`
	BubbleRatio float64 `json:"bubble_ratio"`
	// PeakBytes is the simulated per-device peak memory.
	PeakBytes []int64 `json:"peak_bytes"`
	// OOM reports that the simulated peak exceeds device capacity.
	OOM bool `json:"oom"`
	// Plan is the underlying plan, embedded exactly as in PlanResponse.
	Plan json.RawMessage `json:"plan"`
}

// ScheduleName returns the wire label of a schedule kind: k.String(), under
// the name the frozen bench/ calls.
func ScheduleName(k baseline.ScheduleKind) string { return k.String() }

// CanonicalizeJSON rewrites a JSON document into canonical form: object keys
// sorted bytewise, arrays in place, no insignificant whitespace, numbers kept
// in their original textual form (so no float round-trip can perturb bytes).
func CanonicalizeJSON(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("request: canonicalizing: %w", err)
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(x.String())
	case string:
		sb, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(sb)
	case bool:
		buf.WriteString(strconv.FormatBool(x))
	case nil:
		buf.WriteString("null")
	default:
		return fmt.Errorf("request: canonicalizing unexpected type %T", v)
	}
	return nil
}
