package adapipe

import (
	"context"

	"adapipe/internal/train"
)

// Training-engine façade: a pure-Go pipelined transformer trainer with real
// unit-level recomputation (the execution engine of §6 in miniature).
type (
	// TrainConfig sizes the trainable micro-transformer.
	TrainConfig = train.Config
	// TrainRunConfig describes a full training run (partitioning,
	// recomputation strategy, steps, micro-batches).
	TrainRunConfig = train.RunConfig
	// TrainResult carries the per-step losses and per-stage activation
	// high-water marks.
	TrainResult = train.RunResult
	// SaveSpec is the set of computation units of a block that keep their
	// activations; unsaved units are recomputed before backward.
	SaveSpec = train.SaveSpec
)

// SaveAll returns a SaveSpec that keeps every unit of any block (no
// recomputation).
func SaveAll() SaveSpec { return train.SaveAll() }

// SaveNone returns a SaveSpec that recomputes every optional unit.
func SaveNone() SaveSpec { return train.SaveNone() }

// Train builds a micro-transformer, partitions it into pipeline stages, and
// trains it on a deterministic synthetic corpus with multi-goroutine 1F1B
// scheduling. Gradients are bit-identical across recomputation strategies
// and partitionings (§7.5). Bounds that do not split the layer sequence into
// non-empty stages are an error. A stage that panics cancels its iteration,
// and the run ends there with the error naming the stage and the losses of
// the steps that completed.
func Train(rc TrainRunConfig) (TrainResult, error) { return train.Run(rc) }

// TrainContext is Train with cancellation: ctx is checked between optimizer
// steps, and a cancelled run returns the losses of the steps that completed
// alongside ctx.Err(). Gradients of completed steps are unaffected.
func TrainContext(ctx context.Context, rc TrainRunConfig) (TrainResult, error) {
	return train.RunContext(ctx, rc)
}

// TrainDataParallel runs d synchronized pipeline replicas with gradient
// all-reduce (the DP dimension of 3D parallelism) and returns per-step mean
// losses. Replicas are built identically from the run config's seed; the
// global micro-batches are split across them each step.
func TrainDataParallel(d int, rc TrainRunConfig) (TrainResult, error) {
	return train.RunDataParallel(d, rc)
}

// TrainSpecFromPlan converts a planner Plan into engine stage bounds and
// per-block SaveSpecs, so a searched strategy can be executed for real. A
// plan that does not validate against m's layer sequence (one searched for
// another model, say) is an error.
func TrainSpecFromPlan(p *Plan, m Model) (bounds []int, saves [][]SaveSpec, err error) {
	if err := p.Validate(len(m.LayerSequence())); err != nil {
		return nil, nil, err
	}
	bounds = p.Bounds()
	saves, err = train.StageSaves(m, bounds, p.SavedCount)
	return bounds, saves, err
}
