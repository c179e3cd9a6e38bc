// Package core implements the AdaPipe search engine (§6): it profiles a model
// analytically, runs the two-level dynamic program — per-stage adaptive
// recomputation (§4) inside adaptive stage partitioning (§5) — and produces
// an executable Plan with a per-stage layer range, save/recompute strategy,
// memory breakdown and modeled phase times.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/memory"
	"adapipe/internal/model"
	"adapipe/internal/obs"
	"adapipe/internal/parallel"
	"adapipe/internal/partition"
	"adapipe/internal/profile"
	"adapipe/internal/recompute"
)

// RecomputeMode selects the recomputation policy.
type RecomputeMode int

const (
	// RecomputeAdaptive searches the per-stage save set with the §4 DP.
	RecomputeAdaptive RecomputeMode = iota
	// RecomputeFull always recomputes decoder layers, saving only each
	// layer's input (the -Full baselines).
	RecomputeFull
	// RecomputeNone saves every intermediate (the -Non baselines).
	RecomputeNone
	// RecomputeLayerLevel searches save/recompute decisions at whole-layer
	// granularity, the coarse policy of prior work (vPipe-style, §2.2):
	// each Attention/FFN layer either keeps all its intermediates or
	// recomputes all of them. An ablation quantifying the value of
	// AdaPipe's unit granularity.
	RecomputeLayerLevel
)

// String returns the mode name.
func (m RecomputeMode) String() string {
	switch m {
	case RecomputeAdaptive:
		return "adaptive"
	case RecomputeFull:
		return "full"
	case RecomputeNone:
		return "none"
	case RecomputeLayerLevel:
		return "layer"
	default:
		return fmt.Sprintf("RecomputeMode(%d)", int(m))
	}
}

// PartitionMode selects the stage-partitioning policy.
type PartitionMode int

const (
	// PartitionAdaptive runs Algorithm 1.
	PartitionAdaptive PartitionMode = iota
	// PartitionEven splits the layer sequence uniformly (the baselines and
	// the Even Partitioning configuration of §7).
	PartitionEven
	// PartitionExact runs the Pareto-frontier variant of Algorithm 1,
	// which is globally optimal under the §5.1 cost model (an extension:
	// it quantifies how close the paper's near-optimal DP gets). It always
	// searches cold: no warm-start memo.
	PartitionExact
)

// String returns the mode name.
func (m PartitionMode) String() string {
	switch m {
	case PartitionAdaptive:
		return "adaptive"
	case PartitionEven:
		return "even"
	case PartitionExact:
		return "exact"
	default:
		return fmt.Sprintf("PartitionMode(%d)", int(m))
	}
}

// Options configures the planner.
type Options struct {
	// Memory selects the precision regime of the static memory model.
	Memory memory.Options
	// MemoryReserve is the fraction of device memory withheld from the
	// adaptive-recomputation budget — the paper runs the DP against a
	// conservative 70 GB of the 80 GB capacity (§7.4). Baselines are
	// checked against the full capacity.
	MemoryReserve float64
	// Quantum is the minimum knapsack rounding granularity in bytes.
	Quantum int64
	// MaxDPStates caps the knapsack capacity in quanta; the quantum grows
	// (in powers of two) until the budget fits, trading a little precision
	// for search speed. Zero selects 4096.
	MaxDPStates int64
	// DisableGCD turns off the §5.3 GCD reduction (ablation).
	DisableGCD bool
	// DisableIsomorphism turns off the §5.3 isomorphic-range cache
	// (ablation): every (s,i,j) range is solved independently.
	DisableIsomorphism bool
	// Recompute selects the recomputation policy.
	Recompute RecomputeMode
	// Partition selects the partitioning policy.
	Partition PartitionMode
	// MaxFrontier caps the Pareto frontier of PartitionExact per DP cell
	// (zero selects 128). Larger values approach true optimality at the
	// cost of search time.
	MaxFrontier int
	// IgnoreMemoryLimit plans full/no-recomputation baselines even when
	// their modeled memory exceeds capacity, so the simulator can estimate
	// the peak consumption of OOM configurations (Figure 8). It has no
	// effect on the adaptive search, which needs the constraint.
	IgnoreMemoryLimit bool
}

// DefaultOptions returns the configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		Memory:        memory.Default(),
		MemoryReserve: 0.15, // ~68 of 80 GB, the paper's conservative 70 GB setting
		MaxDPStates:   4096,
	}
}

// StagePlan is the plan of one pipeline stage.
type StagePlan struct {
	// Stage is the stage index (0-based).
	Stage int
	// LayerLo and LayerHi delimit the half-open layer range [lo, hi).
	LayerLo, LayerHi int
	// Fwd and Bwd are the modeled per-micro-batch times in seconds; Bwd
	// includes the recomputation overhead of the chosen strategy.
	Fwd, Bwd float64
	// Recompute is the chosen save/recompute strategy.
	Recompute recompute.Solution
	// Mem is the modeled peak memory.
	Mem memory.Breakdown
}

// Layers returns the number of layers assigned to the stage.
func (sp StagePlan) Layers() int { return sp.LayerHi - sp.LayerLo }

// Plan is a complete AdaPipe execution plan.
type Plan struct {
	// Model names the planned architecture.
	Model string
	// Strategy is the 3D parallelism configuration.
	Strategy parallel.Strategy
	// SeqLen and MicroBatch echo the training configuration.
	SeqLen, MicroBatch int
	// MicroBatches is n, the per-replica micro-batch count.
	MicroBatches int
	// Recompute and Partition record the planning modes.
	Recompute RecomputeMode
	// Partition records the partitioning mode.
	Partition PartitionMode
	// Stages holds one entry per pipeline stage.
	Stages []StagePlan
	// Total, W, E, M are the modeled iteration time and phase values of
	// the §5.1 cost model (communication excluded; the simulator adds it).
	Total, W, E, M float64
	// CommFwd and CommBwd are the per-micro-batch stage-boundary transfer
	// times the simulator charges.
	CommFwd, CommBwd float64
	// Search is a snapshot of the planner's search-effort counters at the
	// time this plan was produced. Excluded from plan serialization (it
	// carries wall-clock time, which is not deterministic).
	Search SearchStats
}

// Fwd returns the per-stage forward times.
func (p *Plan) Fwd() []float64 {
	out := make([]float64, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Fwd
	}
	return out
}

// Bwd returns the per-stage backward times (including recomputation).
func (p *Plan) Bwd() []float64 {
	out := make([]float64, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Bwd
	}
	return out
}

// SavedPerMicro returns the per-stage activation bytes pinned per in-flight
// micro-batch.
func (p *Plan) SavedPerMicro() []int64 {
	out := make([]int64, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Mem.SavedPerMicro
	}
	return out
}

// StaticMem returns the per-stage static memory (params, grads, optimizer
// states, recompute buffer).
func (p *Plan) StaticMem() []int64 {
	out := make([]int64, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Mem.Static()
	}
	return out
}

// Planner runs the AdaPipe search for one (model, cluster, strategy,
// training-config) tuple.
type Planner struct {
	cfg     model.Config
	cluster hardware.Cluster
	strat   parallel.Strategy
	train   parallel.Config
	opts    Options

	prof   *profile.Profile
	layers []model.Layer
	n      int
	// clock times the search's wall counter (SearchWall). obs.RealClock() at
	// construction; SetClock swaps in a fake for deterministic tests.
	// Immutable once planning starts.
	clock obs.Clock

	// table is the dense per-(stage, iso-class) cost table together with the
	// per-class shape tables the solves read (costtable.go). The pointer and
	// the shapes are immutable; entries publish themselves through per-entry
	// atomic states, so lookups and solves never take mu.
	table *costTable

	// mu guards Stats, the stage scale, the solver pool, the attached cost
	// source and the warm-start memo. Everything above it is immutable
	// after construction. Concurrent Plan/CostFor calls on one planner are
	// safe (TestDifferential's concurrent leg) and their knapsack solves
	// overlap: mu is held only around this bookkeeping, never across a
	// lookup or a solve.
	mu sync.Mutex
	// source, when non-nil, is the shared second-level cost store consulted
	// when a class is missing from the table (SetCostSource); family is the
	// 32-byte fingerprint prefixing this planner's store keys. Both are set
	// before the first Plan and never change while a search runs.
	// guarded by mu
	source CostSource
	// family is the cost-family fingerprint of this planner's store keys.
	// guarded by mu
	family []byte
	// scale holds per-stage compute-cost multipliers (nil = all 1), set by
	// SetStageScale when a live run observes a degraded stage. Applied on
	// top of the table, which stores nominal costs only. The slice is
	// replaced wholesale, never mutated in place, so a reference read under
	// mu stays consistent after unlock.
	// guarded by mu
	scale []float64
	// solverPool holds idle solve scratch (knapsack arena + group list),
	// reused across Plan calls so repeat searches stop rebuilding arenas on
	// every request. A solve borrows one exclusively and parks it back.
	// guarded by mu
	solverPool []*stageSolver
	// partMemo holds the partition-DP table of the last completed search,
	// kept to warm-start the next one; nil while a solve has it checked out,
	// after a search that did not complete, before the first search
	// completes, and always under PartitionEven and PartitionExact, which
	// search cold every time.
	// guarded by mu
	partMemo *partition.Memo
	// memoScale is the stage-scale vector the memo was computed under
	// (nil = nominal), compared bit-wise against scale to decide which DP
	// levels a warm-started search must recompute.
	// guarded by mu
	memoScale []float64
	// Stats accumulates search-effort counters across Plan calls (the cost
	// table persists, so the counters do too); each Plan carries a snapshot.
	// Read it only after all concurrent Plan calls have returned.
	// guarded by mu
	Stats SearchStats

	// uncut turns off the lower-bound cut of Algorithm 1's scans (scanBound).
	// It is the tests' switch, set before the first Plan and never changed:
	// plans must not depend on it, only the cells a search evaluates.
	uncut bool
}

// NewPlanner validates the inputs, profiles the model analytically and
// returns a planner.
func NewPlanner(cfg model.Config, cluster hardware.Cluster, strat parallel.Strategy, train parallel.Config, opts Options) (*Planner, error) {
	prof, err := profile.NewWithComm(cfg, cluster.Device, strat, train.SeqLen, train.MicroBatch, cluster.IntraNodeBandwidth)
	if err != nil {
		return nil, err
	}
	return NewPlannerWithProfile(cfg, cluster, strat, train, prof, opts)
}

// NewPlannerWithProfile builds a planner around an existing cost profile —
// typically one assembled from real cluster measurements via
// profile.FromMeasurements, the paper's deployment path (§6: the search
// engine "first profiles the forward time and backward time of each
// computation unit").
func NewPlannerWithProfile(cfg model.Config, cluster hardware.Cluster, strat parallel.Strategy, train parallel.Config, prof *profile.Profile, opts Options) (*Planner, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Memory.Validate(); err != nil {
		return nil, err
	}
	if opts.MemoryReserve < 0 || opts.MemoryReserve >= 1 {
		return nil, fmt.Errorf("core: MemoryReserve must be in [0,1), got %g", opts.MemoryReserve)
	}
	if strat.Devices() > cluster.Devices() {
		return nil, fmt.Errorf("core: strategy %s needs %d devices, cluster %s has %d",
			strat, strat.Devices(), cluster.Name, cluster.Devices())
	}
	if prof == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	n, err := train.MicroBatches(strat)
	if err != nil {
		return nil, err
	}
	if n < strat.PP {
		return nil, fmt.Errorf("core: %d micro-batches cannot fill a %d-stage 1F1B pipeline", n, strat.PP)
	}
	pl := &Planner{
		cfg:     cfg,
		cluster: cluster,
		strat:   strat,
		train:   train,
		opts:    opts,
		prof:    prof,
		layers:  cfg.LayerSequence(),
		n:       n,
		clock:   obs.RealClock(),
	}
	pl.table = newCostTable(pl)
	return pl, nil
}

// SetClock replaces the planner's wall-clock source so tests can drive the
// SearchStats wall counters deterministically. Call it before the first
// Plan/PlanContext; a nil clock is ignored.
func (pl *Planner) SetClock(c obs.Clock) {
	if c != nil {
		pl.clock = c
	}
}

// Profile exposes the synthesized cost profile.
func (pl *Planner) Profile() *profile.Profile { return pl.prof }

// MicroBatches returns n for the planner's configuration.
func (pl *Planner) MicroBatches() int { return pl.n }

// dpBudget is the memory budget the adaptive DP searches against.
func (pl *Planner) dpBudget() int64 {
	return int64(float64(pl.cluster.Device.MemCapacity) * (1 - pl.opts.MemoryReserve))
}

// stageCostFor returns the cost entry for layers i..j at stage s under the
// installed stage scale, counting the lookup into Stats. The table holds
// nominal costs; the scale is applied to the returned copy, so SetStageScale
// never invalidates an entry (the class index retains the stage, keeping
// per-stage scaling consistent). Safe for concurrent use. It serves callers
// outside a search (CostFor, planForBounds); a search reads the table
// directly and merges its lookup counts once.
func (pl *Planner) stageCostFor(s, i, j int) coststore.Entry {
	idx, _, hit := pl.lookup(nil, s, i, j)
	c := pl.table.cost(idx)
	pl.mu.Lock()
	pl.Stats.CostEvaluations++
	if hit {
		pl.Stats.CacheHits++
	}
	scale := pl.scale
	pl.mu.Unlock()
	if scale != nil {
		c.Fwd *= scale[s]
		c.Bwd *= scale[s]
	}
	return c
}

// lookup finds the table entry of layers i..j at stage s, resolving it first
// if no search has published it yet. hit reports that it was already
// published — the isomorphic-range cache hit of §5.3. The hit path is two
// array reads: no lock, no hashing, no allocation. tr (nil when the caller is
// untraced) attributes a knapsack solve the lookup may trigger.
func (pl *Planner) lookup(tr *obs.Tracer, s, i, j int) (idx int, feasible, hit bool) {
	idx = pl.table.index(s, i, j)
	state := pl.table.hot[idx].state.Load()
	hit = state >= costInfeasible
	if !hit {
		state = pl.resolve(tr, idx, s, i, j)
	}
	return idx, state == costFeasible, hit
}

// scanBound is the lower bound that cuts Algorithm 1's scans under the
// stage-scale snapshot scale, or nil when the planner runs them uncut. It
// reads the class shape table only, so a cut candidate costs no lookup and
// no knapsack. Every entry's Fwd is sh.fwd and its Bwd is sh.bwd plus what
// its strategy re-executes (nothing under none), both scaled like the bound:
// the bound's forward is the entry's bit for bit, and its backward exceeds
// the entry's by a few ulps at most, the slack partition.BoundFn permits
// (DESIGN §5). A scanned stage is never the last, so its range stops short
// of the head, and the shape sums only grow with j.
func (pl *Planner) scanBound(scale []float64) partition.BoundFn {
	if pl.uncut {
		return nil
	}
	t := pl.table
	return func(s, i, j int) (float64, float64) {
		sh := &t.shapes[t.shapeIndex(i, j)]
		if scale == nil {
			return sh.fwd, sh.bwd
		}
		return sh.fwd * scale[s], sh.bwd * scale[s]
	}
}

// resolve publishes the unpublished entry idx of layers i..j at stage s and
// returns its final state. The static-memory gate runs first, from the shape
// table alone: a class that cannot fit under any strategy is settled with one
// compare-and-swap and never reaches the cost store — it is cheaper to
// re-derive than to hash. Otherwise the search that wins the entry's
// absent → solving transition runs the class solve (solveClass) while any
// other search wanting the same entry parks until it is published; solves of
// different classes overlap freely.
func (pl *Planner) resolve(tr *obs.Tracer, idx, s, i, j int) uint32 {
	e := &pl.table.hot[idx]
	perMicro, fits := pl.microBudget(s, i, j)
	if !fits {
		e.state.CompareAndSwap(costAbsent, costInfeasible)
		return costInfeasible
	}
	for !e.state.CompareAndSwap(costAbsent, costSolving) {
		if state := pl.table.await(e); state != costAbsent {
			return state
		}
	}
	sv, src, family := pl.borrowSolver()
	sv.knap.Trace = tr
	var st SearchStats
	pl.solveClass(src, family, s, i, j, perMicro, sv, &st)
	pl.returnSolver(sv, st)
	return e.state.Load()
}

// stageInput is the activation a stage receives from its predecessor, live
// per in-flight micro-batch; a stage starting at the embedding receives only
// token ids, which are negligible.
func (pl *Planner) stageInput(i int) int64 {
	if pl.layers[i].Kind == model.Embedding {
		return 0
	}
	return pl.prof.CommBytes
}

// microBudget is the static-memory gate of the searched recomputation modes:
// the per-micro-batch bytes left for saved activations once the class's
// static memory and the stage input are paid for, and whether that is
// non-negative. The fixed policies (full, none) have no gate.
func (pl *Planner) microBudget(s, i, j int) (perMicro int64, fits bool) {
	if pl.opts.Recompute == RecomputeFull || pl.opts.Recompute == RecomputeNone {
		return 0, true
	}
	inFlight := memory.InFlight(pl.strat.PP, s)
	avail := pl.dpBudget() - pl.table.shapes[pl.table.shapeIndex(i, j)].static.Static()
	if avail < 0 || inFlight == 0 {
		return 0, false
	}
	perMicro = avail/int64(inFlight) - pl.stageInput(i)
	return perMicro, perMicro >= 0
}

// solveClass prices the class of layers i..j for the entry at stage s, which
// the caller moved to solving (perMicro is its microBudget), and publishes it.
// The stages that may run one class differ only in their per-micro-batch
// budget, and one knapsack table filled to the largest budget answers every
// smaller one (recompute.OptimizeMany) — provided the budgets round alike:
// quantumFor grows the quantum with the budget, and a different quantum is a
// different rounding of every unit size, hence a different problem. So the
// solve also claims the still-absent entries of the class at the other
// reachable stages whose quantum matches, and serves them all from the one
// table. Each claimed entry is published through the same per-entry path as
// ever — its own store key when a source is attached, its own absent →
// solving → published walk — and the table is filled only when the first of
// them actually has to be computed, for it and the claims after it. If the
// solve panics every unpublished claim goes back to absent, so a search
// parked on one retries instead of waiting forever.
//
// It reads only immutable planner state, runs on sv's scratch and counts
// effort into st — so concurrent searches run it in parallel, each with a
// private solver and stats shard.
func (pl *Planner) solveClass(src CostSource, family []byte, s, i, j int, perMicro int64, sv *stageSolver, st *SearchStats) {
	t := pl.table
	sh := &t.shapes[t.shapeIndex(i, j)]
	searched := pl.opts.Recompute != RecomputeFull && pl.opts.Recompute != RecomputeNone
	claims := append(sv.claims[:0], classClaim{idx: t.index(s, i, j), s: s, perMicro: perMicro})
	quantum := pl.quantumFor(perMicro)
	// The fixed policies run no knapsack, so there is no table to share.
	for s2 := 0; searched && s2 < pl.strat.PP; s2++ {
		if s2 == s || !t.reachable(s2, i, j) {
			continue
		}
		idx := t.index(s2, i, j)
		e := &t.hot[idx]
		if e.state.Load() != costAbsent {
			continue
		}
		// A sibling the static gate rejects is left to its own lookup.
		pm, fits := pl.microBudget(s2, i, j)
		if fits && pl.quantumFor(pm) == quantum && e.state.CompareAndSwap(costAbsent, costSolving) {
			claims = append(claims, classClaim{idx: idx, s: s2, perMicro: pm})
		}
	}
	sv.claims = claims
	published := 0
	defer func() {
		for _, c := range claims[published:] {
			t.settle(&t.hot[c.idx], costAbsent)
		}
	}()

	input := pl.stageInput(i)
	// solved is the first claim whose strategy has been read from the table.
	solved := len(claims)
	var optional float64
	entry := func(k int) coststore.Entry {
		c := claims[k]
		if !searched {
			return pl.fixedPolicyEntry(c.s, sh, input)
		}
		if k < solved {
			solved = k
			optional = pl.searchStrategies(sh, k, quantum, sv, st)
		}
		sol := sv.sols[k]
		if !sol.Feasible {
			return coststore.Entry{Sol: sol}
		}
		mem := sh.static
		mem.InFlight = memory.InFlight(pl.strat.PP, c.s)
		sol.SavedBytes += input
		mem.SavedPerMicro = sol.SavedBytes
		return coststore.Entry{Fwd: sh.fwd, Bwd: sh.bwd + (optional - sol.SavedTime), Sol: sol, Mem: mem, OK: true}
	}
	for k, c := range claims {
		var cost coststore.Entry
		if src == nil {
			cost = entry(k)
		} else {
			// The store runs the compute closure exactly once per key
			// process-wide (singleflight), so the planner either solves and
			// publishes, or adopts another planner's identical solve.
			var disp coststore.Disposition
			cost, disp = src.GetOrCompute(pl.storeKey(family, c.s, i, j), func() coststore.Entry { return entry(k) })
			if disp == coststore.Computed {
				st.StoreMisses++
			} else {
				st.StoreHits++
			}
		}
		t.publish(c.idx, cost)
		published = k + 1
	}
}

// searchStrategies runs the §4 knapsack of a class once for sv.claims[from:]
// — one table, read at each claim's budget — leaving claim k's strategy in
// sv.sols[k], and returns the class's total optional forward time (what a
// stage that saves nothing re-executes).
func (pl *Planner) searchStrategies(sh *classShape, from int, quantum int64, sv *stageSolver, st *SearchStats) float64 {
	sv.groups = pl.table.groups(sh, sv.groups)
	n := len(sv.claims)
	if cap(sv.sols) < n {
		sv.sols = make([]recompute.Solution, n)
		sv.budgets = make([]int64, n)
	}
	sv.sols, sv.budgets = sv.sols[:n], sv.budgets[:n]
	sols, budgets := sv.sols[from:], sv.budgets[from:]
	for k, c := range sv.claims[from:] {
		budgets[k] = c.perMicro
	}
	cells, live := sv.knap.OptimizeMany(sv.groups, budgets, recompute.Options{
		Quantum:    quantum,
		DisableGCD: pl.opts.DisableGCD,
	}, sols)
	served := 0
	for k := range sols {
		if sols[k].DPCells > 0 {
			served++
			st.QuantaBeforeGCD += sols[k].QuantaBeforeGCD
			st.QuantaAfterGCD += sols[k].QuantaAfterGCD
		}
	}
	if cells > 0 {
		st.KnapsackRuns++
		st.KnapsackCells += cells
		st.KnapsackLiveCells += live
		st.KnapsackShared += served - 1
	}
	return recompute.TotalOptionalTime(sv.groups)
}

// fixedPolicyEntry prices a class at stage s under classic full or no
// recomputation, from the per-kind tables alone.
func (pl *Planner) fixedPolicyEntry(s int, sh *classShape, input int64) coststore.Entry {
	t := pl.table
	mem := sh.static
	mem.InFlight = memory.InFlight(pl.strat.PP, s)
	sol := recompute.Solution{Feasible: true, Saved: map[string]int{}, SavedBytes: input}
	for k, c := range sh.counts {
		sol.TotalUnits += int(c) * t.units[k]
		sol.SavedUnits += int(c) * t.keepUnits[k]
		sol.SavedBytes += int64(c) * t.keepBytes[k]
	}
	mem.SavedPerMicro = sol.SavedBytes
	bwd := sh.bwd
	if pl.opts.Recompute == RecomputeFull {
		bwd += sh.replay
	}
	ok := pl.opts.IgnoreMemoryLimit || mem.Total() <= pl.cluster.Device.MemCapacity
	return coststore.Entry{Fwd: sh.fwd, Bwd: bwd, Sol: sol, Mem: mem, OK: ok}
}

// borrowSolver checks one solve scratch out of the planner's pool (building
// one if the pool is empty) and returns it with the attached cost source and
// its family prefix. The solver is exclusively owned until returnSolver parks
// it back.
func (pl *Planner) borrowSolver() (*stageSolver, CostSource, []byte) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := len(pl.solverPool)
	if n == 0 {
		return new(stageSolver), pl.source, pl.family
	}
	sv := pl.solverPool[n-1]
	pl.solverPool[n-1] = nil
	pl.solverPool = pl.solverPool[:n-1]
	return sv, pl.source, pl.family
}

// returnSolver parks a borrowed solver for the next solve — dropping its
// tracer so a later request cannot cross-attribute knapsack spans — and
// merges the effort its solve counted into Stats.
func (pl *Planner) returnSolver(sv *stageSolver, st SearchStats) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	sv.knap.Trace = nil
	pl.solverPool = append(pl.solverPool, sv)
	pl.Stats.addSolves(st)
}

// quantumFor grows the rounding quantum (in powers of two) until the budget
// fits in MaxDPStates quanta.
func (pl *Planner) quantumFor(budget int64) int64 {
	q := pl.opts.Quantum
	if q <= 0 {
		q = 1 << 20
	}
	maxStates := pl.opts.MaxDPStates
	if maxStates <= 0 {
		maxStates = 4096
	}
	for budget/q > maxStates {
		q *= 2
	}
	return q
}

// Plan runs the configured search and assembles the plan. The search is one
// goroutine: the partition DP resolves each class the first time it looks it
// up. Plan is safe to call concurrently on one planner: searches share the
// cost table, and their solves overlap.
func (pl *Planner) Plan() (*Plan, error) {
	return pl.PlanContext(context.Background())
}

// PlanContext is Plan with cooperative cancellation: once ctx is done the
// partition DP short-circuits its remaining cost evaluations, and ctx.Err()
// is returned instead of a plan.
// Cancellation is result-safe — a cancelled search publishes only
// fully-computed cost entries into the table and keeps no DP memo, so a later
// search on the same planner still produces plans byte-identical to a
// never-cancelled one (TestDifferential's cancelled leg). An uncancelled
// context changes nothing: PlanContext(context.Background()) is exactly Plan.
func (pl *Planner) PlanContext(ctx context.Context) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.TracerFrom(ctx)
	searchStart := pl.clock()
	L := len(pl.layers)
	p := pl.strat.PP

	// The DP asks "cancelled?" once per cell; ctx.Err() takes the context's
	// mutex, so the cells read a flag armed by the context instead.
	var cancelled atomic.Bool
	disarm := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	defer disarm()

	// Try the incremental fast path first: if the last search's DP memo is
	// still valid, check it out and recompute only the levels the scale
	// change invalidated.
	spClaim := tr.Start("search.invalidate", obs.CatSearch)
	ws := pl.claimWarmStart()
	spClaim.End()
	memo, stale := ws.memo, ws.stale

	// The search counts its lookups privately and merges them into Stats
	// once: unpublished lookups as they happen (they are rare), everything
	// else from the DP's own cell count at the end.
	var misses int
	// Only a completed search hands the claimed memo back (below), which is
	// what makes the next replan warm. Any other exit drops it and the next
	// search runs cold: a cancellation that lands in the DP's last level can
	// leave it enough feasible cells to succeed on the costs it neutered, and
	// SolveMemo then marks that table valid. Such a search still counts the
	// lookups that cost it something.
	installed := false
	defer func() {
		if installed {
			return
		}
		pl.mu.Lock()
		pl.Stats.CostEvaluations += misses
		pl.mu.Unlock()
	}()

	if !ws.ok {
		stale = p - 1
		// A cold Algorithm 1 search fills a fresh memo so the next search can
		// warm-start from it.
		if !pl.opts.DisableIsomorphism && pl.opts.Partition == PartitionAdaptive {
			memo = &partition.Memo{}
		}
	}
	// The DP's cost function, cold or warm-started: a lock-free read of the
	// shared table under the scale snapshot taken at claim time, so one
	// solve sees one consistent repricing even if SetStageScale races it.
	hot, scale := pl.table.hot, ws.scale
	cost := func(s, i, j int) (float64, float64, bool) {
		// A cancelled context turns every remaining cost lookup into an
		// immediate "infeasible" so the DP unwinds quickly; whatever partial
		// solution it then returns is discarded below in favor of ctx.Err(),
		// and a warm-start memo self-invalidates.
		if cancelled.Load() {
			return 0, 0, false
		}
		idx, ok, hit := pl.lookup(tr, s, i, j)
		if !hit {
			misses++
		}
		f, b := hot[idx].fwd, hot[idx].bwd
		if scale != nil {
			f *= scale[s]
			b *= scale[s]
		}
		return f, b, ok
	}

	var bounds []int
	var total, w, e, m float64
	var cellsAdd, frontierAdd, warmAdd int
	// Error returns leave the span unclosed and hence unrecorded — a failed
	// search produces no partition span, which is the honest trace.
	spanName := "search.partition"
	if ws.ok {
		spanName = "search.incremental"
	}
	spDP := tr.Start(spanName, obs.CatSearch)
	switch pl.opts.Partition {
	case PartitionExact:
		sol, _, err := partition.SolveExact(L, p, pl.n, cost, pl.frontierCap())
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: %w (OOM under every partitioning)", err)
		}
		bounds = sol.Bounds
		total, w, e, m = sol.Total, sol.W, sol.E, sol.M
		cellsAdd, frontierAdd = sol.DPCells, sol.FrontierStates
	case PartitionEven:
		bounds = partition.Even(L, p)
		var ok bool
		total, w, e, m, ok = partition.Evaluate(bounds, pl.n, cost)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: %s with even partitioning exceeds the %s memory capacity (OOM)",
				pl.opts.Recompute, pl.cluster.Device.Name)
		}
		cellsAdd = p
	default:
		sol, err := partition.SolveBounded(L, p, pl.n, cost, pl.scanBound(scale), memo, stale)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: %w (OOM under every partitioning)", err)
		}
		bounds = sol.Bounds
		total, w, e, m = sol.Total, sol.W, sol.E, sol.M
		cellsAdd, warmAdd = sol.DPCells, sol.WarmCells
	}

	spDP.End()

	// A cancellation that raced the DP's final cells may have produced a
	// structurally valid but stale solution; never hand it out.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spStages := tr.Start("search.stages", obs.CatSearch)
	// The assembly prices stages under the same scale snapshot the DP used,
	// so a racing SetStageScale cannot tear the plan. The DP evaluated every
	// chosen stage, so these lookups are hits.
	plan := pl.assemble(bounds, scale, total, w, e, m)
	spStages.End()
	pl.mu.Lock()
	// cellsAdd counts exactly the cost evaluations the DP made (partition.
	// Plan.DPCells); the assembly read one more entry per stage.
	evals := cellsAdd + p
	pl.Stats.CostEvaluations += evals
	pl.Stats.CacheHits += evals - misses
	pl.Stats.PartitionCells += cellsAdd
	pl.Stats.FrontierStates += frontierAdd
	pl.Stats.WarmStartCells += warmAdd
	if ws.ok {
		pl.Stats.ReplanIncremental++
		pl.Stats.InvalidatedIsoClasses += ws.invalidated
	}
	pl.Stats.SearchWall += pl.clock().Sub(searchStart)
	plan.Search = pl.Stats
	// Install the completed solve's memo and the scale it was computed
	// under; the next search warm-starts from here.
	pl.memoScale = ws.scale
	if memo != nil {
		pl.partMemo = memo
	}
	installed = true
	pl.mu.Unlock()
	return plan, nil
}

// assemble builds the Plan for a partitioning whose stages are all published
// in the cost table, pricing them under the given stage-scale snapshot.
func (pl *Planner) assemble(bounds []int, scale []float64, total, w, e, m float64) *Plan {
	plan := &Plan{
		Model:        pl.cfg.Name,
		Strategy:     pl.strat,
		SeqLen:       pl.train.SeqLen,
		MicroBatch:   pl.train.MicroBatch,
		MicroBatches: pl.n,
		Recompute:    pl.opts.Recompute,
		Partition:    pl.opts.Partition,
		Total:        total,
		W:            w,
		E:            e,
		M:            m,
	}
	bw := pl.cluster.PipelineBandwidth(pl.strat.TP)
	plan.CommFwd = pl.prof.CommTime(bw, pl.cluster.LinkLatency)
	plan.CommBwd = plan.CommFwd // gradient of the boundary tensor, same shape
	for s := 0; s+1 < len(bounds); s++ {
		c := pl.table.cost(pl.table.index(s, bounds[s], bounds[s+1]-1))
		if scale != nil {
			c.Fwd *= scale[s]
			c.Bwd *= scale[s]
		}
		plan.Stages = append(plan.Stages, StagePlan{
			Stage:     s,
			LayerLo:   bounds[s],
			LayerHi:   bounds[s+1],
			Fwd:       c.Fwd,
			Bwd:       c.Bwd,
			Recompute: c.Sol,
			Mem:       c.Mem,
		})
	}
	return plan
}

// CostFor exposes the cached per-range cost model: the modeled forward and
// backward times (seconds per micro-batch) and memory feasibility of layers
// i..j (inclusive) executed as stage s. Tools and tests use it to evaluate
// partitionings the search did not choose.
func (pl *Planner) CostFor(s, i, j int) (fwd, bwd float64, ok bool) {
	if s < 0 || s >= pl.strat.PP || i < 0 || j >= len(pl.layers) || i > j {
		return 0, 0, false
	}
	c := pl.stageCostFor(s, i, j)
	return c.Fwd, c.Bwd, c.OK
}

// LayerCount returns the length of the partitionable layer sequence.
func (pl *Planner) LayerCount() int { return len(pl.layers) }

// StatsSnapshot returns a consistent copy of the cumulative search counters,
// safe to take while other goroutines plan on this planner (unlike reading
// Stats directly, which is only safe once all concurrent calls returned).
func (pl *Planner) StatsSnapshot() SearchStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.Stats
}

// coarsenToLayers merges each layer kind's optional units into one atomic
// knapsack item, so a layer is saved or recomputed as a whole — the coarse
// granularity of chain-recomputation prior work (§2.2). AlwaysSaved groups
// are unchanged.
func coarsenToLayers(groups []recompute.Group) []recompute.Group {
	merged := map[string]*recompute.Group{}
	var out []recompute.Group
	for _, g := range groups {
		if g.AlwaysSaved {
			out = append(out, g)
			continue
		}
		kind := g.Key
		if i := strings.IndexByte(kind, '/'); i >= 0 {
			kind = kind[:i]
		}
		m, ok := merged[kind]
		if !ok {
			m = &recompute.Group{Key: kind + "/whole-layer", Count: g.Count}
			merged[kind] = m
		}
		m.FwdTime += g.FwdTime
		m.Bytes += g.Bytes
	}
	// Emit the merged groups in sorted key order: ranging over the map
	// directly would let Go's randomized iteration order leak into the
	// knapsack input order and from there into serialized plans.
	kinds := make([]string, 0, len(merged))
	for kind := range merged {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		out = append(out, *merged[kind])
	}
	recompute.SortGroups(out)
	return out
}
