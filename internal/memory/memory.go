// Package memory implements the three-part memory model of §4.2: static
// consumption (parameters, gradients, optimizer states), the recomputation
// buffer reused across decoder layers in the backward pass, and the saved
// intermediate results multiplied by the 1F1B in-flight micro-batch count.
package memory

import (
	"fmt"

	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/profile"
)

// Options selects the precision regime of the static memory model.
type Options struct {
	// ParamBytes is bytes per parameter for the live weights (2 for fp16).
	ParamBytes int
	// GradBytes is bytes per parameter for gradients (2 for fp16, 4 when
	// the framework accumulates gradients in fp32 — §4.2).
	GradBytes int
	// OptimizerBytes is bytes per parameter for optimizer state, sharded
	// across t·d ranks by ZeRO-1. For the paper's FP32 Adam under a
	// Megatron-style distributed optimizer this is 4 (m) + 4 (v) + 4
	// (fp32 master weights) = 12 (§4.2 notes frameworks that update
	// parameters in FP32 before converting to half precision).
	OptimizerBytes int
	// OverheadBytes is the fixed per-device framework overhead: CUDA/NPU
	// context, communication buffers, kernel workspaces and allocator
	// fragmentation. Real frameworks lose several GiB to it, and it is
	// what separates the paper's marginal OOM configurations from the
	// feasible ones.
	OverheadBytes int64
}

// Default returns the regime used in the evaluation: fp16 weights and
// gradients, fp32 Adam with fp32 master weights under ZeRO-1 (k = 12), and
// 4 GiB framework overhead.
func Default() Options {
	return Options{ParamBytes: 2, GradBytes: 2, OptimizerBytes: 12, OverheadBytes: 4 << 30}
}

// Validate reports whether the options are meaningful.
func (o Options) Validate() error {
	if o.ParamBytes <= 0 || o.GradBytes <= 0 || o.OptimizerBytes <= 0 {
		return fmt.Errorf("memory: all byte sizes must be positive: %+v", o)
	}
	if o.OverheadBytes < 0 {
		return fmt.Errorf("memory: OverheadBytes must be non-negative: %+v", o)
	}
	return nil
}

// Breakdown is the modeled peak memory of one pipeline stage.
type Breakdown struct {
	// Params is the live-weight memory in bytes.
	Params int64
	// Grads is the gradient memory in bytes.
	Grads int64
	// Optimizer is the ZeRO-1-sharded optimizer-state memory in bytes.
	Optimizer int64
	// Buffer is the recomputation buffer: large enough for all
	// intermediates of one decoder layer (§4.2 restriction keeps it
	// bounded by that).
	Buffer int64
	// Overhead is the fixed framework overhead.
	Overhead int64
	// SavedPerMicro is the activation memory pinned per in-flight
	// micro-batch under the chosen recomputation strategy.
	SavedPerMicro int64
	// InFlight is the maximum number of simultaneously live micro-batches
	// (p − s under 1F1B).
	InFlight int
}

// Static returns the activation-independent portion (the Const of §4.2).
func (b Breakdown) Static() int64 {
	return b.Params + b.Grads + b.Optimizer + b.Buffer + b.Overhead
}

// Activations returns the saved-intermediate portion.
func (b Breakdown) Activations() int64 { return b.SavedPerMicro * int64(b.InFlight) }

// Total returns the modeled peak memory.
func (b Breakdown) Total() int64 { return b.Static() + b.Activations() }

// InFlight returns the maximum number of micro-batches stage s (0-based) of a
// p-stage 1F1B pipeline holds live at once: stage s performs p−s warmup
// forward passes before its first backward (§2.1).
func InFlight(p, s int) int {
	if s < 0 || s >= p {
		return 0
	}
	return p - s
}

// StageParams returns the parameter count assigned to a stage covering the
// given layer range.
func StageParams(cfg model.Config, layers []model.Layer) int64 {
	var n int64
	for _, l := range layers {
		n += cfg.LayerParams(l.Kind)
	}
	return n
}

// RecomputeBuffer returns the backward-pass buffer size for a stage: the
// intermediates of one decoder layer (one Attention plus one FFN layer), per
// §4.2 — the restriction that layer outputs are always saved bounds the
// buffer by a single layer's intermediates regardless of strategy.
func RecomputeBuffer(prof *profile.Profile, layers []model.Layer) int64 {
	var att, ffn int64
	for _, l := range layers {
		switch l.Kind {
		case model.Attention:
			att = prof.Layers[model.Attention].SavedBytesAll
		case model.FFN:
			ffn = prof.Layers[model.FFN].SavedBytesAll
		}
	}
	return att + ffn
}

// StageStatic computes the Const part of the memory model for a stage.
func StageStatic(cfg model.Config, prof *profile.Profile, strat parallel.Strategy, layers []model.Layer, opts Options) Breakdown {
	return Static(StageParams(cfg, layers), RecomputeBuffer(prof, layers), strat, opts)
}

// Static is StageStatic for a caller that already holds the stage's
// parameter count and recomputation-buffer size (the planner keeps both per
// isomorphism class instead of re-summing the layer range on every lookup).
func Static(params, buffer int64, strat parallel.Strategy, opts Options) Breakdown {
	t := int64(strat.TP)
	td := int64(strat.TP) * int64(strat.DP)
	return Breakdown{
		Params:    int64(opts.ParamBytes) * params / t,
		Grads:     int64(opts.GradBytes) * params / t,
		Optimizer: int64(opts.OptimizerBytes) * params / td,
		Buffer:    buffer,
		Overhead:  opts.OverheadBytes,
	}
}

// SavedAll returns the per-micro-batch activation bytes of a layer range with
// every unit saved (no recomputation).
func SavedAll(prof *profile.Profile, layers []model.Layer) int64 {
	var n int64
	for _, l := range layers {
		n += prof.Layers[l.Kind].SavedBytesAll
	}
	return n
}

// SavedBoundary returns the per-micro-batch activation bytes of classic full
// recomputation, which saves only the input of each decoder block (one
// tensor per Attention+FFN pair) — half of AdaPipe's always-saved floor,
// which keeps both sub-layer outputs (§7.3). Embedding and Head layers keep
// their full activations (they are not recomputed).
func SavedBoundary(prof *profile.Profile, layers []model.Layer) int64 {
	var n int64
	for _, l := range layers {
		switch l.Kind {
		case model.Attention:
			n += prof.Layers[l.Kind].BoundaryBytes
		case model.Embedding, model.Head:
			n += prof.Layers[l.Kind].SavedBytesAll
		}
	}
	return n
}
