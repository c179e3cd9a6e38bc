// Package schedule builds pipeline-parallel execution schedules: the order in
// which each device runs forward and backward passes of micro-batches. It
// covers the mechanisms compared in the paper — GPipe, the 1F1B schedule of
// PipeDream/DAPPLE (§2.1), Megatron's interleaved 1F1B, and Chimera's
// bidirectional pipelines with and without forward doubling (§7.1).
//
// A schedule is declarative: per-device op sequences plus dependency rules.
// The sim package executes them against per-stage costs.
package schedule

import (
	"fmt"
	"sort"
)

// Kind distinguishes forward from backward passes.
type Kind int

const (
	// Forward is a forward pass.
	Forward Kind = iota
	// Backward is a backward pass (gradient computation, possibly
	// including recomputation time).
	Backward
)

// String returns "F" or "B".
func (k Kind) String() string {
	if k == Forward {
		return "F"
	}
	return "B"
}

// Op is one forward or backward pass of one or more micro-batches at one
// stage. Multi-micro forward ops appear only under Chimera forward doubling.
type Op struct {
	// Kind is Forward or Backward.
	Kind Kind
	// Micros lists the micro-batch ids the op processes (usually one).
	Micros []int
	// Stage is the logical stage inside the op's pipeline (0 = first).
	Stage int
	// Pipeline is 0 for the down pipeline and 1 for Chimera's up pipeline.
	Pipeline int
}

// String formats the op compactly, e.g. "F3@2" or "B1@0↑".
func (o Op) String() string {
	dir := ""
	if o.Pipeline == 1 {
		dir = "^"
	}
	return fmt.Sprintf("%s%v@%d%s", o.Kind, o.Micros, o.Stage, dir)
}

// Schedule is a complete per-device execution order.
type Schedule struct {
	// Name identifies the mechanism ("1F1B", "GPipe", "Chimera", ...).
	Name string
	// Stages is the pipeline depth p.
	Stages int
	// Micros is the micro-batch count n.
	Micros int
	// Ops holds each device's op sequence. Device d executes Ops[d] in
	// order when InOrder is true; otherwise the order is a priority hint
	// and the simulator greedily runs the first ready op.
	Ops [][]Op
	// InOrder selects strict in-order execution per device.
	InOrder bool
	// Bidirectional marks Chimera-style schedules where device d hosts
	// down-pipeline stage d and up-pipeline stage p−1−d, with model
	// parameters replicated across the two pipelines.
	Bidirectional bool
}

// Devices returns the device count (one per physical stage; interleaved
// schedules host several virtual stages per device).
func (s *Schedule) Devices() int { return len(s.Ops) }

// OneFOneB builds the 1F1B (DAPPLE) schedule: stage s runs p−s−1 warmup
// forward passes, alternates one-forward-one-backward through the steady
// phase, and drains backward passes in the ending phase (§2.1, Figure 2b).
func OneFOneB(p, n int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	s := &Schedule{Name: "1F1B", Stages: p, Micros: n, Ops: make([][]Op, p), InOrder: true}
	for st := 0; st < p; st++ {
		warmup := p - st - 1
		if warmup > n {
			warmup = n
		}
		var ops []Op
		for m := 0; m < warmup; m++ {
			ops = append(ops, Op{Kind: Forward, Micros: []int{m}, Stage: st})
		}
		for k := 0; k < n; k++ {
			if warmup+k < n {
				ops = append(ops, Op{Kind: Forward, Micros: []int{warmup + k}, Stage: st})
			}
			ops = append(ops, Op{Kind: Backward, Micros: []int{k}, Stage: st})
		}
		s.Ops[st] = ops
	}
	return s, nil
}

// GPipe builds the GPipe schedule: all forward passes, then all backward
// passes in reverse micro-batch order (Figure 2a).
func GPipe(p, n int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	s := &Schedule{Name: "GPipe", Stages: p, Micros: n, Ops: make([][]Op, p), InOrder: true}
	for st := 0; st < p; st++ {
		var ops []Op
		for m := 0; m < n; m++ {
			ops = append(ops, Op{Kind: Forward, Micros: []int{m}, Stage: st})
		}
		for m := n - 1; m >= 0; m-- {
			ops = append(ops, Op{Kind: Backward, Micros: []int{m}, Stage: st})
		}
		s.Ops[st] = ops
	}
	return s, nil
}

// Chimera builds a bidirectional-pipeline schedule (Li & Hoefler, SC'21):
// micro-batches alternate between a down pipeline (stage s on device s) and
// an up pipeline (stage s on device p−1−s), in scheduling units of p
// micro-batches. Per-device orders come from a slot-based priority
// construction; concatenating units reproduces the inter-unit bubbles the
// paper observes when n exceeds p (§7.2), because backward passes outlast
// forward passes.
func Chimera(p, n int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	if p%2 != 0 {
		return nil, fmt.Errorf("schedule: Chimera needs an even stage count, got %d", p)
	}
	if n%p != 0 {
		return nil, fmt.Errorf("schedule: Chimera needs micro-batches (%d) divisible by stages (%d)", n, p)
	}
	s := &Schedule{Name: "Chimera", Stages: p, Micros: n, Ops: make([][]Op, p), Bidirectional: true, InOrder: true}
	for d := 0; d < p; d++ {
		var ops []keyedOp
		for unit := 0; unit < n/p; unit++ {
			base := unit * p
			off := float64(unit) * 4 * float64(p)
			for k := 0; k < p/2; k++ {
				down := base + k
				up := base + p/2 + k
				ops = append(ops,
					keyedOp{Op{Kind: Forward, Micros: []int{down}, Stage: d, Pipeline: 0}, off + float64(d+k)},
					keyedOp{Op{Kind: Forward, Micros: []int{up}, Stage: p - 1 - d, Pipeline: 1}, off + float64(p-1-d+k) + 0.5},
					keyedOp{Op{Kind: Backward, Micros: []int{down}, Stage: d, Pipeline: 0}, off + float64(2*p) + float64(2*k) + float64(p-1-d)},
					keyedOp{Op{Kind: Backward, Micros: []int{up}, Stage: p - 1 - d, Pipeline: 1}, off + float64(2*p) + float64(2*k) + float64(d) + 0.5},
				)
			}
		}
		s.Ops[d] = sortKeyed(ops)
	}
	return s, nil
}

// keyedOp pairs an op with its slot priority during construction. Keys are
// topologically consistent (every dependency has a strictly smaller key), so
// per-device in-order execution of key-sorted lists cannot deadlock.
type keyedOp struct {
	op  Op
	key float64
}

func sortKeyed(ops []keyedOp) []Op {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].key < ops[j].key })
	out := make([]Op, len(ops))
	for i, k := range ops {
		out[i] = k.op
	}
	return out
}

// ChimeraD builds Chimera with forward doubling (§7.1): every forward pass
// processes two micro-batches at once (doubling activation memory), while
// backward passes remain per-micro-batch, equalizing forward and backward
// slot lengths when recomputation is off.
func ChimeraD(p, n int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	if p%2 != 0 {
		return nil, fmt.Errorf("schedule: ChimeraD needs an even stage count, got %d", p)
	}
	if n%(2*p) != 0 {
		return nil, fmt.Errorf("schedule: ChimeraD needs micro-batches (%d) divisible by 2x stages (%d)", n, 2*p)
	}
	s := &Schedule{Name: "ChimeraD", Stages: p, Micros: n, Ops: make([][]Op, p), Bidirectional: true, InOrder: true}
	// Micro pairs (2i, 2i+1) flow forward together; pair i goes down the
	// down pipeline when (i mod p) < p/2, up otherwise.
	pairs := n / 2
	for d := 0; d < p; d++ {
		var ops []keyedOp
		for unit := 0; unit < pairs/p; unit++ {
			base := unit * p
			off := float64(unit) * 4 * float64(p)
			for k := 0; k < p/2; k++ {
				down := base + k
				up := base + p/2 + k
				ops = append(ops,
					keyedOp{Op{Kind: Forward, Micros: []int{2 * down, 2*down + 1}, Stage: d, Pipeline: 0}, off + float64(d+k)},
					keyedOp{Op{Kind: Forward, Micros: []int{2 * up, 2*up + 1}, Stage: p - 1 - d, Pipeline: 1}, off + float64(p-1-d+k) + 0.5},
					keyedOp{Op{Kind: Backward, Micros: []int{2 * down}, Stage: d, Pipeline: 0}, off + float64(2*p) + float64(2*k) + float64(p-1-d)},
					keyedOp{Op{Kind: Backward, Micros: []int{2*down + 1}, Stage: d, Pipeline: 0}, off + float64(2*p) + float64(2*k) + float64(p-1-d) + 0.25},
					keyedOp{Op{Kind: Backward, Micros: []int{2 * up}, Stage: p - 1 - d, Pipeline: 1}, off + float64(2*p) + float64(2*k) + float64(d) + 0.5},
					keyedOp{Op{Kind: Backward, Micros: []int{2*up + 1}, Stage: p - 1 - d, Pipeline: 1}, off + float64(2*p) + float64(2*k) + float64(d) + 0.75},
				)
			}
		}
		s.Ops[d] = sortKeyed(ops)
	}
	return s, nil
}

// Interleaved builds Megatron-LM's interleaved 1F1B schedule with v virtual
// chunks per device: device d hosts stages d, d+p, …, d+(v−1)p of a vp-stage
// virtual pipeline. Provided as the paper's related mechanism (§2.1); the
// simulator executes it greedily.
func Interleaved(p, n, v int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	if v < 1 {
		return nil, fmt.Errorf("schedule: interleaving factor must be >= 1, got %d", v)
	}
	if v == 1 {
		return OneFOneB(p, n)
	}
	if n%p != 0 {
		return nil, fmt.Errorf("schedule: interleaved 1F1B needs micro-batches (%d) divisible by stages (%d)", n, p)
	}
	s := &Schedule{Name: fmt.Sprintf("Interleaved-%d", v), Stages: p * v, Micros: n, Ops: make([][]Op, p)}
	for d := 0; d < p; d++ {
		var ops []Op
		// Forward priority: chunk-major groups of p micro-batches.
		for g := 0; g < n/p; g++ {
			for c := 0; c < v; c++ {
				for k := 0; k < p; k++ {
					m := g*p + k
					ops = append(ops, Op{Kind: Forward, Micros: []int{m}, Stage: c*p + d})
				}
			}
		}
		for g := n/p - 1; g >= 0; g-- {
			for c := v - 1; c >= 0; c-- {
				for k := 0; k < p; k++ {
					m := g*p + k
					ops = append(ops, Op{Kind: Backward, Micros: []int{m}, Stage: c*p + d})
				}
			}
		}
		s.Ops[d] = ops
	}
	return s, nil
}

// Validate checks structural invariants: every micro-batch appears exactly
// once as forward and once as backward per stage it crosses, and in-order
// schedules respect per-micro forward-before-backward on each device.
func (s *Schedule) Validate() error {
	type key struct {
		kind         Kind
		micro, stage int
		pipeline     int
	}
	seen := map[key]int{}
	for d := range s.Ops {
		for _, op := range s.Ops[d] {
			for _, m := range op.Micros {
				seen[key{op.Kind, m, op.Stage, op.Pipeline}]++
			}
		}
	}
	// Check in sorted key order so that, with several violations, the same
	// one is reported on every run (map iteration order is randomized).
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pipeline != b.pipeline {
			return a.pipeline < b.pipeline
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.micro != b.micro {
			return a.micro < b.micro
		}
		return a.kind < b.kind
	})
	for _, k := range keys {
		c := seen[k]
		if c != 1 {
			return fmt.Errorf("schedule %s: %s of micro %d at stage %d (pipeline %d) appears %d times",
				s.Name, k.kind, k.micro, k.stage, k.pipeline, c)
		}
		if k.kind == Forward {
			if seen[key{Backward, k.micro, k.stage, k.pipeline}] != 1 {
				return fmt.Errorf("schedule %s: forward of micro %d at stage %d has no backward", s.Name, k.micro, k.stage)
			}
		}
	}
	return nil
}

func checkPN(p, n int) error {
	if p < 1 {
		return fmt.Errorf("schedule: need at least one stage, got %d", p)
	}
	if n < 1 {
		return fmt.Errorf("schedule: need at least one micro-batch, got %d", n)
	}
	return nil
}
