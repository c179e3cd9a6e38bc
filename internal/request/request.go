// Package request defines the versioned, machine-readable planning API every
// entry point shares: the adapipe CLI and the adapiped daemon both construct
// planners from one PlanRequest schema, so the flag surface and the HTTP
// surface can never drift. Requests have a canonical
// (sorted-key, deterministic) JSON encoding and a content hash over it — the
// identity the daemon's plan cache and request coalescing key on.
package request

import (
	"bytes"
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

// Normalize applies schema defaults and validates every field, returning the
// normalized copy. It is idempotent; Hash, Canonical and the planner
// constructors all normalize internally, so callers building requests by
// struct literal get defaults applied automatically.
func (r PlanRequest) Normalize() (PlanRequest, error) {
	if r.Version == 0 {
		r.Version = Version
	}
	if r.Version != Version {
		return r, fmt.Errorf("request: unsupported schema version %d (this build speaks %d)", r.Version, Version)
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
		if r.TinyLayers < 1 {
			return r, fmt.Errorf("request: tiny_layers must be >= 1, got %d", r.TinyLayers)
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
	if _, err := r.TrainingConfig().MicroBatches(r.Strategy()); err != nil {
		return r, err
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

// parseStrict is the one strict decoder behind ParsePlanRequest,
// ParseReplanRequest and ParseSweepRequest: unknown fields and anything after
// the one JSON value are rejected, and the result is normalized. kind names
// the request in the error strings.
func parseStrict[R interface{ Normalize() (R, error) }](data []byte, kind string) (R, error) {
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

// Canonical returns the canonical JSON encoding of the normalized request:
// object keys sorted bytewise, no insignificant whitespace, default values
// materialized. Equal requests — including ones that differ only in field
// order, whitespace or elided defaults — have equal canonical bytes, which is
// what makes Hash a cache identity rather than a representation artifact.
func (r PlanRequest) Canonical() ([]byte, error) {
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

// Hash returns the request's content identity: the lowercase-hex SHA-256 of
// its canonical encoding.
func (r PlanRequest) Hash() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

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

// ModelConfig resolves the architecture the request names.
func (r PlanRequest) ModelConfig() (model.Config, error) {
	n, err := r.Normalize()
	if err != nil {
		return model.Config{}, err
	}
	switch n.Model {
	case "gpt3":
		return model.GPT3_175B(), nil
	case "llama2":
		return model.Llama2_70B(), nil
	default: // "tiny"; Normalize already rejected everything else
		return model.Tiny(n.TinyLayers), nil
	}
}

// ClusterConfig resolves the hardware model the request names.
func (r PlanRequest) ClusterConfig() (hardware.Cluster, error) {
	n, err := r.Normalize()
	if err != nil {
		return hardware.Cluster{}, err
	}
	switch n.Cluster {
	case "a":
		return hardware.ClusterA(), nil
	case "b":
		return hardware.ClusterB(), nil
	default: // "b-large"
		return hardware.ClusterBLarge(), nil
	}
}

// MethodConfig resolves the evaluation method the request names.
func (r PlanRequest) MethodConfig() (baseline.Method, error) {
	n, err := r.Normalize()
	if err != nil {
		return baseline.Method{}, err
	}
	return baseline.MethodByName(n.Method)
}

// Options builds the planner options the request implies: the evaluation
// defaults with the method's recomputation and partitioning modes applied.
// The ignored ints exist only because the frozen bench/ passes a worker count.
func (r PlanRequest) Options(_ ...int) (core.Options, error) {
	m, err := r.MethodConfig()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.DefaultOptions()
	opts.Recompute = m.Recompute
	opts.Partition = m.Partition
	opts.IgnoreMemoryLimit = !m.Adaptive()
	if r.MemoryReserve > 0 {
		opts.MemoryReserve = r.MemoryReserve
	}
	return opts, nil
}

// NewPlanner constructs the planner the request describes — the single
// request-driven construction path the CLI, benchmarks and daemon share.
// The ignored ints exist only because the frozen bench/ passes a worker count.
func (r PlanRequest) NewPlanner(_ ...int) (*core.Planner, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	cfg, err := n.ModelConfig()
	if err != nil {
		return nil, err
	}
	cl, err := n.ClusterConfig()
	if err != nil {
		return nil, err
	}
	opts, err := n.Options()
	if err != nil {
		return nil, err
	}
	return core.NewPlanner(cfg, cl, n.Strategy(), n.TrainingConfig(), opts)
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

// NewPlanResponse assembles the response for a solved request.
func NewPlanResponse(r PlanRequest, p *core.Plan) (PlanResponse, error) {
	env, err := NewResponseEnvelope(r)
	if err != nil {
		return PlanResponse{}, err
	}
	planJSON, err := json.Marshal(p)
	if err != nil {
		return PlanResponse{}, err
	}
	return PlanResponse{ResponseEnvelope: env, Plan: planJSON}, nil
}

// Encode returns the response's deterministic JSON encoding.
func (pr PlanResponse) Encode() ([]byte, error) { return json.Marshal(pr) }

// ParsePlanResponse decodes a response, checking the schema version.
func ParsePlanResponse(data []byte) (PlanResponse, error) {
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return pr, fmt.Errorf("request: decoding plan response: %w", err)
	}
	if pr.Version != Version {
		return pr, fmt.Errorf("request: unsupported response version %d (this build speaks %d)", pr.Version, Version)
	}
	return pr, nil
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

// ScheduleName returns the wire label of a schedule kind.
func ScheduleName(k baseline.ScheduleKind) string {
	switch k {
	case baseline.Sched1F1B:
		return "1f1b"
	case baseline.SchedGPipe:
		return "gpipe"
	case baseline.SchedChimera:
		return "chimera"
	case baseline.SchedChimeraD:
		return "chimerad"
	default:
		return "unknown"
	}
}

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
