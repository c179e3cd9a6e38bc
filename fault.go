package adapipe

import (
	"adapipe/internal/core"
	"adapipe/internal/fault"
	"adapipe/internal/obs"
	"adapipe/internal/tensor"
	"adapipe/internal/train"
)

// Fault-tolerance façade: deterministic fault injection into the live 1F1B
// engine, step-level recovery (snapshot/retry/skip), and the planner's
// replan entry points for a degraded stage or a resized cluster.
type (
	// FaultRule is one fault source: a kind (straggler delay, transient
	// panic, NaN/Inf corruption) plus stage/micro/attempt/phase filters.
	// Build with FaultOn and the chainable At*/With* setters.
	FaultRule = fault.Rule
	// FaultKind is a fault class (FaultStraggler, FaultPanic, FaultCorrupt).
	FaultKind = fault.Kind
	// FaultInjector evaluates a seeded rule set deterministically: the same
	// seed fires the same faults on every run, independent of goroutine
	// scheduling. Attach via TrainRunConfig.Fault or TrainPipeline.Fault.
	FaultInjector = fault.Injector
	// FaultCounters aggregates injected faults and recovery actions.
	FaultCounters = obs.FaultCounters
	// TrainPipeline is the live 1F1B executor (cancellable, watchdogged).
	TrainPipeline = train.Pipeline
	// TrainRecovery is the step-level failure policy (retries, backoff,
	// non-finite guard).
	TrainRecovery = train.Recovery
	// TrainSupervisor drives a pipeline under a recovery policy, with
	// checkpoint-based Rebind for adopting replans mid-run.
	TrainSupervisor = train.Supervisor
	// TrainRecorder captures per-op spans of one pipeline iteration.
	TrainRecorder = obs.Recorder
	// TrainBatch is one micro-batch of token/target rows.
	TrainBatch = train.Batch
	// TrainCorpus samples deterministic synthetic batches.
	TrainCorpus = train.Corpus
	// RNG is the deterministic generator used for batch sampling.
	RNG = tensor.RNG
	// Replan is the outcome of a straggler-driven replanning attempt:
	// repriced incumbent, re-searched plan, both simulations, adoption
	// verdict. Produced by Planner.ReplanWithScale.
	Replan = core.Replan
	// ShapeReplan is the outcome of an elastic shape replan after a node
	// count change: the planner and plan for the winning pipeline depth on
	// the resized cluster. Produced by Planner.ReplanWithShape.
	ShapeReplan = core.ShapeReplan
	// Membership is the cluster health model that separates transient from
	// permanent failures by consecutive-failure streaks per stage.
	Membership = fault.Membership
	// TrainElastic configures the supervisor's elastic recovery: a health
	// model, a Rebuild hook for node loss, an optional Grow hook for
	// scale-up arrivals.
	TrainElastic = train.Elastic
	// TrainStageError is the per-stage failure a supervised step surfaces;
	// the health model uses its Stage to attribute blame.
	TrainStageError = train.StageError
	// InjectedNodeLoss is the panic payload of a FaultNodeLoss rule.
	InjectedNodeLoss = fault.InjectedNodeLoss
)

// Fault kinds and rule filters, re-exported from the fault package.
const (
	// FaultStraggler delays matching ops by the rule's Delay (cancellable).
	FaultStraggler = fault.Straggler
	// FaultPanic panics matching ops, modeling a transient stage failure.
	FaultPanic = fault.Panic
	// FaultCorrupt overwrites one output element with NaN/Inf.
	FaultCorrupt = fault.Corrupt
	// FaultNodeLoss kills every op of one stage from the rule's Attempt
	// onward — a permanent loss no retry can outrun.
	FaultNodeLoss = fault.NodeLoss
	// FaultScaleUp is an arrival event (a spare node joining), counted by
	// the injector's ArrivedNodes, never an op fault.
	FaultScaleUp = fault.ScaleUp
	// FaultAny matches every stage/micro/attempt in a rule filter.
	FaultAny = fault.Any
	// FaultPhaseForward restricts a rule to forward ops.
	FaultPhaseForward = fault.PhaseForward
	// FaultPhaseBackward restricts a rule to backward ops.
	FaultPhaseBackward = fault.PhaseBackward
)

// Watchdog/guard sentinels, testable with errors.Is.
var (
	// ErrWatchdog wraps iteration errors from the pipeline watchdog timeout.
	ErrWatchdog = train.ErrWatchdog
	// ErrNonFinite wraps guard trips on NaN/Inf losses or gradients.
	ErrNonFinite = train.ErrNonFinite
)

// FaultOn starts a FaultRule of the given kind matching every op; narrow it
// with AtStage/AtMicro/AtAttempt/OnPhase/WithProb/WithDelay.
func FaultOn(kind FaultKind) FaultRule { return fault.On(kind) }

// NewFaultInjector validates the rules and returns a deterministic injector
// keyed by seed.
func NewFaultInjector(seed uint64, rules ...FaultRule) (*FaultInjector, error) {
	return fault.New(seed, rules...)
}

// NewTrainPipeline builds a network, partitions it at the given bounds with
// the given per-stage save specs, and wraps it in the live 1F1B executor —
// the step-at-a-time counterpart of Train for callers that drive training
// manually (supervision, mid-run replanning).
func NewTrainPipeline(cfg TrainConfig, bounds []int, saves [][]SaveSpec, lr float64) (*TrainPipeline, error) {
	net, err := train.NewNet(cfg)
	if err != nil {
		return nil, err
	}
	stages, err := train.Split(net, bounds, saves)
	if err != nil {
		return nil, err
	}
	return train.NewPipeline(stages, lr), nil
}

// NewTrainSupervisor wraps a pipeline with the given recovery policy.
func NewTrainSupervisor(p *TrainPipeline, policy TrainRecovery) (*TrainSupervisor, error) {
	return train.NewSupervisor(p, policy)
}

// NewTrainRecorder returns an op recorder to attach to a pipeline's Recorder
// field; each iteration's trace is then available via its Trace method.
func NewTrainRecorder() *TrainRecorder { return obs.NewRecorder() }

// NewTrainCorpus builds the deterministic synthetic corpus Train uses, for
// manual step loops.
func NewTrainCorpus(vocab, length int, seed uint64) *TrainCorpus {
	return train.NewCorpus(vocab, length, seed)
}

// NewRNG returns a deterministic generator for TrainCorpus.Batches.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewMembership builds a health model for a pipeline of stages, each backed
// by nodesPerStage nodes, declaring a node dead after threshold consecutive
// failures attributed to its stage. Attach via TrainSupervisor.Elastic.
func NewMembership(stages, nodesPerStage, threshold int) (*Membership, error) {
	return fault.NewMembership(stages, nodesPerStage, threshold)
}

// FaultMetrics converts fault counters into Prometheus-style gauges under
// the given name prefix.
func FaultMetrics(prefix string, c FaultCounters) []Metric { return obs.FaultMetrics(prefix, c) }
