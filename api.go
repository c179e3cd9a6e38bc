package adapipe

import (
	"fmt"
	"sort"
	"strings"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/experiments"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
	"adapipe/internal/sim"
	"adapipe/internal/trace"
)

// Re-exported types: the public API is a façade over the internal packages,
// so downstream users never import adapipe/internal/... directly.
type (
	// Model describes a transformer architecture (layers, widths,
	// computation units).
	Model = model.Config
	// Layer is one element of the partitionable layer sequence.
	Layer = model.Layer
	// Device is an accelerator's analytical performance model.
	Device = hardware.Device
	// Cluster is a homogeneous accelerator cluster.
	Cluster = hardware.Cluster
	// Strategy is a 3D parallelism configuration (TP, PP, DP).
	Strategy = parallel.Strategy
	// TrainingConfig carries global batch, micro-batch and sequence length.
	TrainingConfig = parallel.Config
	// Options tunes the planner.
	Options = core.Options
	// Plan is a complete AdaPipe execution plan.
	Plan = core.Plan
	// StagePlan is one pipeline stage of a Plan.
	StagePlan = core.StagePlan
	// Planner runs the two-level dynamic-programming search.
	Planner = core.Planner
	// Replan is the outcome of a straggler-driven replanning attempt:
	// repriced incumbent, re-searched plan, both simulations, adoption
	// verdict. Produced by Planner.ReplanWithScale, whose scale prices that
	// call only: the planner keeps nominal costs.
	Replan = core.Replan
	// Method is one evaluation configuration (e.g. "DAPPLE-Full").
	Method = baseline.Method
	// Outcome is one evaluated (method, strategy) point.
	Outcome = baseline.Outcome
	// SimResult is a simulated training iteration.
	SimResult = sim.Result
)

// Planner option modes, re-exported from the core package.
const (
	// RecomputeAdaptive searches per-stage save sets (AdaPipe).
	RecomputeAdaptive = core.RecomputeAdaptive
	// RecomputeFull always recomputes decoder layers (the -Full baselines).
	RecomputeFull = core.RecomputeFull
	// RecomputeNone saves every intermediate (the -Non baselines).
	RecomputeNone = core.RecomputeNone
	// RecomputeLayerLevel searches at whole-layer granularity (the coarse
	// policy of prior work, an ablation).
	RecomputeLayerLevel = core.RecomputeLayerLevel
	// PartitionAdaptive runs Algorithm 1 (AdaPipe).
	PartitionAdaptive = core.PartitionAdaptive
	// PartitionEven splits layers uniformly (baselines, Even Partitioning).
	PartitionEven = core.PartitionEven
	// PartitionExact runs the Pareto-frontier DP (an extension measuring
	// Algorithm 1's near-optimality). It keeps at most 128 states per DP
	// cell, so it is not guaranteed optimal: where Algorithm 1 is 3.96 %
	// above the optimum, it beats Algorithm 1 by only 2.96 % (DESIGN §4).
	PartitionExact = core.PartitionExact
)

// GPT3 returns the GPT-3 175B architecture evaluated in the paper.
func GPT3() Model { return model.GPT3_175B() }

// Llama2 returns the Llama 2 70B architecture evaluated in the paper.
func Llama2() Model { return model.Llama2_70B() }

// TinyModel returns a small architecture for tests and examples.
func TinyModel(decoderLayers int) Model { return model.Tiny(decoderLayers) }

// ClusterA returns the 64-GPU NVIDIA A100 cluster model (§7.1).
func ClusterA() Cluster { return hardware.ClusterA() }

// ClusterB returns the 256-NPU Ascend 910 cluster model (§7.1).
func ClusterB() Cluster { return hardware.ClusterB() }

// ClusterBLarge returns cluster B scaled to 2048 NPUs (Figure 7).
func ClusterBLarge() Cluster { return hardware.ClusterBLarge() }

// DefaultOptions returns the planner configuration used in the evaluation:
// AdaPipe modes (adaptive recomputation and partitioning), the paper's
// conservative memory reserve, and the Megatron-style precision regime.
func DefaultOptions() Options { return core.DefaultOptions() }

// ToyCluster returns a single-node cluster of small synthetic accelerators
// with the given per-device memory capacity: the hardware model of the toy
// figures (3, 10) and of the examples that execute their plan on the pure-Go
// engine, where the point is the mechanism, not the scale.
func ToyCluster(devices int, capacity int64) Cluster {
	return experiments.ToyCluster(devices, capacity)
}

// ToyOptions returns planner options scaled to megabyte-size models (the
// datacenter framework overhead and reserve would swamp a toy).
func ToyOptions() Options { return experiments.ToyOptions() }

// ToyCapacity probes the no-recomputation footprint of a toy configuration
// and returns a device capacity at which frac of the activations fit: full
// recomputation fits everywhere, saving everything does not.
func ToyCapacity(m Model, s Strategy, t TrainingConfig, frac float64) (int64, error) {
	return experiments.ToyCapacity(m, s, t, frac)
}

// NewPlanner validates the inputs, profiles the model analytically and
// returns a Planner for the given cluster, 3D strategy and training config.
// It is the construction path for a caller-defined Model, Cluster or Options
// — anything the wire schema cannot spell, such as a synthetic test cluster.
// For a configuration the schema can express, prefer a PlanRequest and
// NewPlannerFromRequest (or PlanContext): that path is versioned, validated
// and hashable, and is the one the CLI, benchmarks and the adapiped daemon
// share.
func NewPlanner(m Model, c Cluster, s Strategy, t TrainingConfig, o Options) (*Planner, error) {
	return core.NewPlanner(m, c, s, t, o)
}

// PlanAdaPipe runs the full AdaPipe search (adaptive recomputation +
// adaptive partitioning) with default options on positional inputs. For
// cancellation, deadlines, a wire-friendly entry point, or shared cost-store
// reuse, build a PlanRequest and use PlanContext.
func PlanAdaPipe(m Model, c Cluster, s Strategy, t TrainingConfig) (*Plan, error) {
	pl, err := core.NewPlanner(m, c, s, t, DefaultOptions())
	if err != nil {
		return nil, err
	}
	return pl.Plan()
}

// ScheduleKind selects a pipeline mechanism for Simulate.
type ScheduleKind = baseline.ScheduleKind

// Pipeline mechanisms accepted by Simulate.
const (
	// Sched1F1B is the DAPPLE one-forward-one-backward schedule.
	Sched1F1B = baseline.Sched1F1B
	// SchedGPipe is the GPipe schedule.
	SchedGPipe = baseline.SchedGPipe
	// SchedChimera is the bidirectional Chimera schedule.
	SchedChimera = baseline.SchedChimera
	// SchedChimeraD is Chimera with forward doubling.
	SchedChimeraD = baseline.SchedChimeraD
)

// SimOptions selects optional simulator captures.
type SimOptions struct {
	// Timeline records per-op events for Gantt/Chrome-trace rendering.
	Timeline bool
	// Memory records per-device live-memory curves (exportable via
	// MemoryCSV).
	Memory bool
}

// Simulate executes a plan on the discrete-event pipeline simulator and
// returns iteration time, per-device peak memory, bubbles and (when capture
// is requested) a timeline.
func Simulate(p *Plan, kind ScheduleKind, captureTimeline bool) (SimResult, error) {
	return SimulateWithOptions(p, kind, SimOptions{Timeline: captureTimeline})
}

// SimulateWithOptions is Simulate with full capture control.
func SimulateWithOptions(p *Plan, kind ScheduleKind, opts SimOptions) (SimResult, error) {
	sched, err := kind.Build(p.Strategy.PP, p.MicroBatches)
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run(sim.Input{
		Sched:           sched,
		Stages:          baseline.StageCosts(p),
		CaptureTimeline: opts.Timeline,
		CaptureMemory:   opts.Memory,
	})
}

// Gantt renders a captured simulation timeline as an ASCII chart.
func Gantt(res SimResult, devices, width int) string { return trace.Gantt(res, devices, width) }

// ChromeTrace serializes a captured timeline in the Chrome trace-event
// format for chrome://tracing / Perfetto.
func ChromeTrace(res SimResult) ([]byte, error) { return trace.ChromeTrace(res) }

// MemoryCSV renders captured per-device memory curves as CSV
// (device,time_sec,bytes).
func MemoryCSV(res SimResult) string { return trace.MemoryCSV(res) }

// Methods returns the paper's eight evaluation methods in legend order.
func Methods() []Method { return baseline.Methods() }

// MethodByName returns a method by its figure label, e.g. "DAPPLE-Full".
func MethodByName(name string) (Method, error) { return baseline.MethodByName(name) }

// Evaluate plans, schedules and simulates one method under one strategy.
func Evaluate(m Method, cfg Model, c Cluster, s Strategy, t TrainingConfig, o Options) Outcome {
	return baseline.Evaluate(m, cfg, c, s, t, o)
}

// Best sweeps all valid 3D strategies for a device count and returns the
// fastest feasible outcome (the paper's cluster-A methodology) plus every
// evaluated point.
func Best(m Method, cfg Model, c Cluster, devices int, t TrainingConfig, o Options) (Outcome, []Outcome) {
	return baseline.Best(m, cfg, c, devices, t, o)
}

// EnumerateStrategies lists the candidate (TP, PP, DP) strategies for a
// device count under the paper's constraints (TP ≤ 8, PP ≥ 2, powers of two).
func EnumerateStrategies(devices int) []Strategy {
	return parallel.Enumerate(devices, parallel.DefaultConstraint())
}

// Describe renders a plan as a human-readable per-stage table: layer range,
// saved units, modeled times and memory.
func Describe(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  strategy %s  seq %d  micro-batches %d  (recompute=%s, partition=%s)\n",
		p.Model, p.Strategy, p.SeqLen, p.MicroBatches, p.Recompute, p.Partition)
	fmt.Fprintf(&b, "modeled iteration %.3fs (warmup %.3fs, steady bottleneck %.4fs/micro, ending %.3fs)\n",
		p.Total, p.W, p.M, p.E)
	if p.Search.CostEvaluations > 0 {
		fmt.Fprintf(&b, "search: %s\n", p.Search)
	}
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-10s %-10s %-12s %-12s\n",
		"stage", "layers", "saved units", "fwd (s)", "bwd (s)", "static", "peak")
	for _, s := range p.Stages {
		fmt.Fprintf(&b, "%-6d [%3d,%3d)   %4d/%-4d    %-10.4f %-10.4f %9.1f GiB %9.1f GiB\n",
			s.Stage, s.LayerLo, s.LayerHi, s.Recompute.SavedUnits, s.Recompute.TotalUnits,
			s.Fwd, s.Bwd, gib(s.Mem.Static()), gib(s.Mem.Total()))
	}
	return b.String()
}

// DescribeSaves renders a plan's per-stage save sets by unit kind — the
// Table 4 view at full resolution.
func DescribeSaves(p *Plan) string {
	// Collect every unit key present.
	keySet := map[string]bool{}
	for _, s := range p.Stages {
		for k := range s.Saved {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "unit \\ stage")
	for _, s := range p.Stages {
		fmt.Fprintf(&b, " %4d", s.Stage)
	}
	b.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-28s", k)
		for _, s := range p.Stages {
			fmt.Fprintf(&b, " %4d", s.Saved[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }
