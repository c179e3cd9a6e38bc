// Package schedule builds pipeline-parallel execution schedules: the order in
// which each device runs forward and backward passes of micro-batches. It
// covers the mechanisms compared in the paper — GPipe, the 1F1B schedule of
// PipeDream/DAPPLE (§2.1), Megatron's interleaved 1F1B, and Chimera's
// bidirectional pipelines with and without forward doubling (§7.1).
//
// A schedule is declarative: per-device op sequences plus dependency rules.
// The sim package executes them against per-stage costs.
package schedule

import "fmt"

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
	// Ops holds each device's op sequence in execution order: device d
	// runs Ops[d][i] only after Ops[d][i−1].
	Ops [][]Op
	// Bidirectional marks Chimera-style schedules where device d hosts
	// down-pipeline stage d and up-pipeline stage p−1−d, with model
	// parameters replicated across the two pipelines.
	Bidirectional bool
}

// Devices returns the device count (one per physical stage; interleaved
// schedules host several virtual stages per device).
func (s *Schedule) Devices() int { return len(s.Ops) }

// microIDs holds the ids 0..n−1 once; every op of a built schedule slices
// its Micros from it. Each slice is capped at its length, so an append to
// one op's Micros copies instead of overwriting its neighbour's ids.
type microIDs []int

// one returns the ids [m].
func (ids microIDs) one(m int) []int { return ids[m : m+1 : m+1] }

// span returns the k ids [m, m+k).
func (ids microIDs) span(m, k int) []int { return ids[m : m+k : m+k] }

// carve gives each of the devices an empty op list with room for perDevice
// ops, all cut from one slab (each capped like microIDs' slices), and
// returns the ids of the schedule's micro-batches.
func (s *Schedule) carve(devices, perDevice int) microIDs {
	slab := make([]Op, devices*perDevice)
	s.Ops = make([][]Op, devices)
	for d := range s.Ops {
		s.Ops[d] = slab[d*perDevice : d*perDevice : (d+1)*perDevice]
	}
	ids := make(microIDs, s.Micros)
	for m := range ids {
		ids[m] = m
	}
	return ids
}

// OneFOneB builds the 1F1B (DAPPLE) schedule: stage s runs p−s−1 warmup
// forward passes, alternates one-forward-one-backward through the steady
// phase, and drains backward passes in the ending phase (§2.1, Figure 2b).
func OneFOneB(p, n int) (*Schedule, error) {
	if err := checkPN(p, n); err != nil {
		return nil, err
	}
	s := &Schedule{Name: "1F1B", Stages: p, Micros: n}
	ids := s.carve(p, 2*n)
	for st := 0; st < p; st++ {
		warmup := p - st - 1
		if warmup > n {
			warmup = n
		}
		ops := s.Ops[st]
		for m := 0; m < warmup; m++ {
			ops = append(ops, Op{Kind: Forward, Micros: ids.one(m), Stage: st})
		}
		for k := 0; k < n; k++ {
			if warmup+k < n {
				ops = append(ops, Op{Kind: Forward, Micros: ids.one(warmup + k), Stage: st})
			}
			ops = append(ops, Op{Kind: Backward, Micros: ids.one(k), Stage: st})
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
	s := &Schedule{Name: "GPipe", Stages: p, Micros: n}
	ids := s.carve(p, 2*n)
	for st := 0; st < p; st++ {
		ops := s.Ops[st]
		for m := 0; m < n; m++ {
			ops = append(ops, Op{Kind: Forward, Micros: ids.one(m), Stage: st})
		}
		for m := n - 1; m >= 0; m-- {
			ops = append(ops, Op{Kind: Backward, Micros: ids.one(m), Stage: st})
		}
		s.Ops[st] = ops
	}
	return s, nil
}

// Chimera builds a bidirectional-pipeline schedule (Li & Hoefler, SC'21):
// micro-batches alternate between a down pipeline (stage s on device s) and
// an up pipeline (stage s on device p−1−s), in scheduling units of p
// micro-batches. Per-device orders come from a slot-based priority
// construction (see bidirectional); concatenating units reproduces the
// inter-unit bubbles the paper observes when n exceeds p (§7.2), because
// backward passes outlast forward passes.
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
	s := &Schedule{Name: "Chimera", Stages: p, Micros: n, Bidirectional: true}
	s.bidirectional(1)
	return s, nil
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
	s := &Schedule{Name: "ChimeraD", Stages: p, Micros: n, Bidirectional: true}
	s.bidirectional(2)
	return s, nil
}

// bidirectional fills a Chimera schedule whose entries each carry w
// micro-batches (w·e, …, w·e+w−1 for entry e): one forward of all w, then w
// backwards of one each. A scheduling unit of p entries from base sends
// entries base+k down and base+p/2+k up, k < p/2. On device d, in slot
// priority, the unit's down forwards sit at d+k and its up forwards at
// p−1−d+k+½; its down backwards at 2p+p−1−d+2k and its up backwards at
// 2p+d+2k+½; the next unit starts 4p later. Each unit thus runs all its
// forwards before its backwards and ends before the next begins, so a
// device's order is, unit by unit, two merges of two arithmetic sequences:
// a down entry precedes an up entry exactly when its integer key is no
// larger than the up entry's integer part. Every dependency has a smaller
// priority, so in-order execution cannot deadlock.
func (s *Schedule) bidirectional(w int) {
	p, half := s.Stages, s.Stages/2
	ids := s.carve(p, s.Micros+s.Micros/w)
	for d := 0; d < p; d++ {
		ops := s.Ops[d]
		phases := [2]struct {
			kind           Kind
			step, down, up int
		}{{Forward, 1, d, p - 1 - d}, {Backward, 2, p - 1 - d, d}}
		for base := 0; base < s.Micros/w; base += p {
			for _, ph := range phases {
				for i, j := 0, 0; i < half || j < half; {
					e, st, pipe := base+i, d, 0
					if i == half || j < half && ph.up+ph.step*j < ph.down+ph.step*i {
						e, st, pipe = base+half+j, p-1-d, 1
						j++
					} else {
						i++
					}
					if ph.kind == Forward {
						ops = append(ops, Op{Kind: Forward, Micros: ids.span(w*e, w), Stage: st, Pipeline: pipe})
						continue
					}
					for m := w * e; m < w*e+w; m++ {
						ops = append(ops, Op{Kind: Backward, Micros: ids.one(m), Stage: st, Pipeline: pipe})
					}
				}
			}
		}
		s.Ops[d] = ops
	}
}

// Interleaved builds Megatron-LM's interleaved 1F1B schedule with v virtual
// chunks per device (Narayanan et al., SC'21): device d hosts chunk c as
// stage c·p+d of a vp-stage virtual pipeline. Provided as the paper's related
// mechanism (§2.1). A device's k-th forward runs chunk (k/p) mod v on micro
// (k/(pv))·p + k mod p, its k-th backward the same micro at chunk
// v−1−(k/p) mod v. Device d runs min(2(p−d−1) + (v−1)p, nv) warm-up
// forwards, then alternates one forward and one backward, then drains the
// remaining backwards.
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
	s := &Schedule{Name: fmt.Sprintf("Interleaved-%d", v), Stages: p * v, Micros: n}
	total := n * v // ops of each kind per device
	ids := s.carve(p, 2*total)
	at := func(kind Kind, d, k int) Op {
		c := k / p % v
		if kind == Backward {
			c = v - 1 - c
		}
		return Op{Kind: kind, Micros: ids.one(k/(p*v)*p + k%p), Stage: c*p + d}
	}
	for d := 0; d < p; d++ {
		warmup := min(2*(p-d-1)+(v-1)*p, total)
		ops := s.Ops[d]
		for k := 0; k < warmup; k++ {
			ops = append(ops, at(Forward, d, k))
		}
		for k := 0; k < total; k++ {
			if warmup+k < total {
				ops = append(ops, at(Forward, d, warmup+k))
			}
			ops = append(ops, at(Backward, d, k))
		}
		s.Ops[d] = ops
	}
	return s, nil
}

// Validate checks structural invariants. Every op must have a known kind
// and name a pipeline (0, or 0 and 1 when Bidirectional), a stage in
// [0, Stages) and micro-batches in [0, Micros); the first op in device order
// that does not is reported. Then every (pipeline, stage, micro) that
// appears must appear exactly once as a forward and once as a backward; with
// several such violations the first in (pipeline, stage, micro, kind) order
// is reported, so every run names the same one. Last, no work may be lost:
// every micro-batch must run at every stage of exactly one pipeline, checked
// micro by micro.
func (s *Schedule) Validate() error {
	if s.Stages < 0 || s.Micros < 0 {
		return fmt.Errorf("schedule %s: negative shape (%d stages, %d micros)", s.Name, s.Stages, s.Micros)
	}
	pipes := 1
	if s.Bidirectional {
		pipes = 2
	}
	// counts[2*cell(pipeline, stage, micro) + kind], cells in that order.
	counts := make([]int32, 2*pipes*s.Stages*s.Micros)
	for d, ops := range s.Ops {
		for _, op := range ops {
			switch {
			case op.Kind != Forward && op.Kind != Backward:
				return fmt.Errorf("schedule %s: device %d has an op of unknown kind %d", s.Name, d, int(op.Kind))
			case op.Pipeline < 0 || op.Pipeline >= pipes:
				return fmt.Errorf("schedule %s: device %d op %s names pipeline %d of %d", s.Name, d, op, op.Pipeline, pipes)
			case op.Stage < 0 || op.Stage >= s.Stages:
				return fmt.Errorf("schedule %s: device %d op %s names stage %d of %d", s.Name, d, op, op.Stage, s.Stages)
			}
			base := (op.Pipeline*s.Stages + op.Stage) * s.Micros
			for _, m := range op.Micros {
				if m < 0 || m >= s.Micros {
					return fmt.Errorf("schedule %s: device %d op %s names micro %d of %d", s.Name, d, op, m, s.Micros)
				}
				counts[2*(base+m)+int(op.Kind)]++
			}
		}
	}
	for cell := 0; cell < len(counts)/2; cell++ {
		fwd, bwd := counts[2*cell], counts[2*cell+1]
		if fwd == 0 && bwd == 0 {
			continue
		}
		m, stage, pipe := cell%s.Micros, cell/s.Micros%s.Stages, cell/s.Micros/s.Stages
		if fwd != 0 {
			if fwd != 1 {
				return fmt.Errorf("schedule %s: %s of micro %d at stage %d (pipeline %d) appears %d times",
					s.Name, Forward, m, stage, pipe, fwd)
			}
			if bwd != 1 {
				return fmt.Errorf("schedule %s: forward of micro %d at stage %d has no backward", s.Name, m, stage)
			}
		}
		if bwd > 1 {
			return fmt.Errorf("schedule %s: %s of micro %d at stage %d (pipeline %d) appears %d times",
				s.Name, Backward, m, stage, pipe, bwd)
		}
		if fwd == 0 {
			return fmt.Errorf("schedule %s: backward of micro %d at stage %d (pipeline %d) has no forward", s.Name, m, stage, pipe)
		}
	}
	// Every cell now holds one forward and one backward, or nothing.
	for m := 0; m < s.Micros; m++ {
		owner, ran := -1, 0
		for pipe := 0; pipe < pipes; pipe++ {
			n := 0
			for stage := 0; stage < s.Stages; stage++ {
				n += int(counts[2*((pipe*s.Stages+stage)*s.Micros+m)])
			}
			if n == 0 {
				continue
			}
			if owner >= 0 {
				return fmt.Errorf("schedule %s: micro %d runs in pipelines %d and %d", s.Name, m, owner, pipe)
			}
			owner, ran = pipe, n
		}
		if ran != s.Stages {
			return fmt.Errorf("schedule %s: micro %d runs at %d of %d stages", s.Name, m, ran, s.Stages)
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
