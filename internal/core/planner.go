// Package core implements the AdaPipe search engine (§6): it profiles a model
// analytically, runs the two-level dynamic program — per-stage adaptive
// recomputation (§4) inside adaptive stage partitioning (§5) — and produces
// an executable Plan with a per-stage layer range, save/recompute strategy,
// memory breakdown and modeled phase times.
package core

import (
	"context"
	"fmt"
	"slices"
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

// recomputeNames is the one name table of the recomputation modes: String
// and the plan decoder both read it.
var recomputeNames = [...]string{RecomputeAdaptive: "adaptive", RecomputeFull: "full", RecomputeNone: "none", RecomputeLayerLevel: "layer"}

// String returns the mode name.
func (m RecomputeMode) String() string { return modeName(recomputeNames[:], m, "RecomputeMode") }

// PartitionMode selects the stage-partitioning policy.
type PartitionMode int

const (
	// PartitionAdaptive runs Algorithm 1.
	PartitionAdaptive PartitionMode = iota
	// PartitionEven splits the layer sequence uniformly (the baselines and
	// the Even Partitioning configuration of §7).
	PartitionEven
	// PartitionExact runs the Pareto-frontier variant of Algorithm 1 (an
	// extension: it quantifies how close the paper's near-optimal DP gets).
	// With an unlimited frontier it is optimal under the §5.1 cost model,
	// but the search caps it at maxFrontier = 128 states per DP cell and
	// discards the solver's exact flag: where Algorithm 1 is 3.96 % above
	// the optimum, the capped search beats it by only 2.96 % (DESIGN §4).
	// It always searches cold: no warm-start memo.
	PartitionExact
)

// partitionNames is the one name table of the partitioning modes.
var partitionNames = [...]string{PartitionAdaptive: "adaptive", PartitionEven: "even", PartitionExact: "exact"}

// String returns the mode name.
func (m PartitionMode) String() string { return modeName(partitionNames[:], m, "PartitionMode") }

// modeName reads mode m's name off its table; a mode outside the table
// prints as its type and number.
func modeName[M ~int](names []string, m M, typ string) string {
	if m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("%s(%d)", typ, int(m))
}

// modeByName is modeName's inverse: the mode a table names name, and whether
// it names one.
func modeByName[M ~int](names []string, name string) (M, bool) {
	i := slices.Index(names, name)
	return M(i), i >= 0
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
	// Recompute is the chosen strategy's totals; its Saved is nil (see Saved).
	Recompute recompute.Solution
	// Saved maps a unit key (e.g. "FFN/FFNUp") to the copies the stage saves,
	// non-zero counts only. The map is the plan's own.
	Saved map[string]int
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

// Bounds returns the p+1 stage bounds over the layer sequence.
func (p *Plan) Bounds() []int {
	out := make([]int, 0, len(p.Stages)+1)
	for _, s := range p.Stages {
		out = append(out, s.LayerLo)
	}
	return append(out, p.Stages[len(p.Stages)-1].LayerHi)
}

// SavedCount returns how many of stage s's layers of the given kind save
// the unit under the plan's recompute mode — what the stage is priced as
// keeping. Adaptive plans read the unit's Saved entry and layer-level plans
// the kind's whole-layer entry. The fixed policies save by rule, as
// fixedPolicyEntry prices them: under RecomputeNone every layer, under
// RecomputeFull every layer but the decoder blocks. "Every layer" is the
// stage's layer count, which no kind's share of the stage exceeds.
func (p *Plan) SavedCount(s int, layer model.LayerKind, unit model.UnitKind) int {
	st := p.Stages[s]
	switch p.Recompute {
	case RecomputeFull:
		if layer == model.Attention || layer == model.FFN {
			return 0
		}
		return st.Layers()
	case RecomputeNone:
		return st.Layers()
	case RecomputeLayerLevel:
		return st.Saved[layer.String()+wholeLayer]
	}
	return st.Saved[unitKey(layer, unit)]
}

// wholeLayer suffixes a layer kind in the key of its merged knapsack item
// under RecomputeLayerLevel, e.g. "FFN/whole-layer".
const wholeLayer = "/whole-layer"

// unitKey names a unit of a layer kind in StagePlan.Saved, e.g. "FFN/FFNUp".
func unitKey(layer model.LayerKind, unit model.UnitKind) string {
	return layer.String() + "/" + unit.String()
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
	// clock times the search's wall counter (SearchWall): obs.RealClock(),
	// set at construction and never changed.
	clock obs.Clock

	// table is the dense per-(stage, iso-class) cost table together with the
	// per-class shape tables the solves read (costtable.go). The pointer and
	// the shapes are immutable; the entries are written only under mu, by the
	// one call running, and read by the partition DP without a lock.
	table *costTable

	// mu serializes the exported methods: each holds it for its whole call,
	// so one search at a time runs on a planner. Concurrent calls are safe
	// and each gives the bytes it would give alone (TestDifferential's
	// concurrent leg); searches on different planners overlap, and share
	// their solves through the cost source. A call holds mu across the cost
	// source, which may wait for another planner's solve of the same key;
	// that solve (stageSolver.entry) takes no planner lock and calls no
	// source, so the wait always ends. Everything above mu is immutable after
	// construction.
	mu sync.Mutex
	// sv is the planner's one search state: the attached cost source, the
	// warm-start memo and the class-solve scratch.
	// guarded by mu
	sv stageSolver
	// stats accumulates search-effort counters across calls (the cost table
	// persists, so the counters do too); each Plan carries a snapshot in its
	// Search field, and StatsSnapshot copies it.
	// guarded by mu
	stats SearchStats

	// uncut turns off the lower-bound cut of Algorithm 1's scans (stageSolver.rows).
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
	if !(opts.MemoryReserve >= 0 && opts.MemoryReserve < 1) { // NaN included
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
	pl.sv = stageSolver{pl: pl, st: &pl.stats}
	pl.sv.compute = pl.sv.entry
	return pl, nil
}

// Profile exposes the synthesized cost profile.
func (pl *Planner) Profile() *profile.Profile { return pl.prof }

// MicroBatches returns n for the planner's configuration.
func (pl *Planner) MicroBatches() int { return pl.n }

// dpBudget is the memory budget the adaptive DP searches against.
func (pl *Planner) dpBudget() int64 {
	return int64(float64(pl.cluster.Device.MemCapacity) * (1 - pl.opts.MemoryReserve))
}

// lookup finds the table entry of layers i..j at stage s, resolving it first
// if it is not published yet. hit reports that it was already published —
// the isomorphic-range cache hit of §5.3. The hit path is two array reads: no
// hashing, no allocation, no counting: the caller counts hits. A miss counts
// itself as a cost evaluation before it resolves, so a solve that panics is
// counted like one that returns. tr (nil when the caller is untraced)
// attributes a knapsack solve the lookup may trigger.
func (sv *stageSolver) lookup(tr *obs.Tracer, s, i, j int) (idx int, feasible, hit bool) {
	t := sv.pl.table
	idx = t.index(s, i, j)
	state := t.hot[idx].State
	hit = state != partition.Absent
	if !hit {
		sv.st.CostEvaluations++
		sv.knap.Trace = tr
		state = sv.resolve(idx, s, i, j)
	}
	return idx, state == partition.Feasible, hit
}

// rows is the row view of the table under the stage scale of one call (nil
// for nominal costs) that every partition policy reads: Algorithm 1, the
// exact variant and Evaluate (the even path and the repricing of a given
// partitioning). The table holds nominal costs and the view applies the
// scale as it reads, so a replan never invalidates an entry. Only a cell not
// published yet comes back to the planner, through Resolve: once cancelled
// (nil: never) is set it is taken as infeasible, so the DP unwinds quickly;
// otherwise its lookup counts the miss and solves the class, a knapsack solve
// attributed to tr (nil: untraced). The caller counts the hits, as the cells
// it read less the misses.
//
// Algorithm 1's scans are cut by the class shapes' times, unless the planner
// runs them uncut: the bound reads the shape table only, so a cut candidate
// costs no lookup and no knapsack. Every entry's Fwd is sh.fwd and its Bwd is
// sh.bwd plus what its strategy re-executes (nothing under none), both scaled
// like the bound: the bound's forward is the entry's bit for bit, and its
// backward exceeds the entry's by a few ulps at most, the slack
// partition.Rows.Bounds permits (DESIGN §5). A scanned stage is never the
// last, so its range stops short of the head, and the shape sums only grow
// with j.
func (sv *stageSolver) rows(tr *obs.Tracer, scale []float64, cancelled *atomic.Bool) partition.Rows {
	t := sv.pl.table
	r := partition.Rows{Cells: t.hot, Stride: 1, Base: t.row, Scale: scale}
	if t.iso {
		r.Stride = isoKindSlots
	}
	if !sv.pl.uncut {
		r.Bounds, r.BoundStride = t.bounds, isoKindSlots
	}
	r.Resolve = func(s, i, j int) partition.Cell {
		if cancelled != nil && cancelled.Load() {
			return partition.Cell{}
		}
		idx, _, _ := sv.lookup(tr, s, i, j)
		return t.hot[idx]
	}
	return r
}

// resolve publishes the absent entry idx of layers i..j at stage s and
// returns its final state. The static-memory gate runs first, from the shape
// table alone: a class that cannot fit under any strategy is published
// infeasible and never reaches the cost store — it is cheaper to re-derive
// than to hash. Otherwise the class solve (solveClass) prices it.
func (sv *stageSolver) resolve(idx, s, i, j int) uint8 {
	e := &sv.pl.table.hot[idx]
	perMicro, fits := sv.pl.microBudget(s, i, j)
	if !fits {
		e.State = partition.Infeasible
	} else {
		sv.solveClass(s, i, j, perMicro)
	}
	return e.State
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

// solveClass prices the class of layers i..j for the absent entry at stage s
// (perMicro is its microBudget) and publishes it.
// The stages that may run one class differ only in their per-micro-batch
// budget, and one knapsack table filled to the largest budget answers every
// smaller one (recompute.OptimizeMany) — provided the budgets round alike:
// quantumFor grows the quantum with the budget, and a different quantum is a
// different rounding of every unit size, hence a different problem. So the
// solve also claims the still-absent entries of the class at the other
// reachable stages whose quantum matches, and serves them all from the one
// table. Each claimed entry is published on its own — under its own store key
// when a source is attached — and the table is filled only when the first of
// them actually has to be computed, for it and the claims after it. An entry
// is written only when it is published, so a solve that panics leaves each
// claim published or absent.
func (sv *stageSolver) solveClass(s, i, j int, perMicro int64) {
	pl := sv.pl
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
		if t.hot[idx].State != partition.Absent {
			continue
		}
		// A sibling the static gate rejects is left to its own lookup.
		if pm, fits := pl.microBudget(s2, i, j); fits && pl.quantumFor(pm) == quantum {
			claims = append(claims, classClaim{idx: idx, s: s2, perMicro: pm})
		}
	}
	sv.claims = claims

	sv.sh, sv.input, sv.quantum, sv.solved = sh, pl.stageInput(i), quantum, len(claims)
	for k, c := range claims {
		sv.k = k
		var cost coststore.Entry
		if sv.src == nil {
			cost = sv.entry()
		} else {
			// The store runs the compute function exactly once per key
			// process-wide (singleflight), so the planner either solves and
			// publishes, or adopts another planner's identical solve.
			var disp coststore.Disposition
			cost, disp = sv.src.GetOrCompute(pl.storeKey(sv.family, c.s, i, j), sv.compute)
			if disp == coststore.Computed {
				sv.st.StoreMisses++
			} else {
				sv.st.StoreHits++
			}
		}
		t.publish(c.idx, sv.keep(cost))
	}
}

// entry prices claim sv.k of the class solve in progress, running the class's
// knapsack the first time a claim needs a strategy from it.
func (sv *stageSolver) entry() coststore.Entry {
	pl, sh, c := sv.pl, sv.sh, sv.claims[sv.k]
	if pl.opts.Recompute == RecomputeFull || pl.opts.Recompute == RecomputeNone {
		return pl.fixedPolicyEntry(c.s, sh, sv.input)
	}
	if sv.k < sv.solved {
		sv.solved = sv.k
		sv.optional = sv.searchStrategies()
	}
	sol, keys := sv.sols[sv.k], pl.table.keys[sh.kinds]
	if !sol.Feasible {
		return coststore.Entry{Sol: sol, Keys: keys}
	}
	mem := sh.static
	mem.InFlight = memory.InFlight(pl.strat.PP, c.s)
	sol.SavedBytes += sv.input
	mem.SavedPerMicro = sol.SavedBytes
	return coststore.Entry{Fwd: sh.fwd, Bwd: sh.bwd + (sv.optional - sol.SavedTime), Sol: sol, Keys: keys, Mem: mem, OK: true}
}

// searchStrategies runs the §4 knapsack of the class once for sv.claims[sv.k:]
// — one table, read at each claim's budget — leaving claim k's strategy in
// sv.sols[k] and returns the class's total optional forward time (what a
// stage that saves nothing re-executes).
func (sv *stageSolver) searchStrategies() float64 {
	sv.groups = sv.pl.table.groups(sv.sh, sv.groups)
	n := len(sv.claims)
	if cap(sv.sols) < n {
		sv.sols = make([]recompute.Solution, n)
		sv.budgets = make([]int64, n)
	}
	sv.sols, sv.budgets = sv.sols[:n], sv.budgets[:n]
	sols, budgets := sv.sols[sv.k:], sv.budgets[sv.k:]
	for k, c := range sv.claims[sv.k:] {
		budgets[k] = c.perMicro
		sols[k].Saved = sv.carve(len(sv.groups))
	}
	cells, live := sv.knap.OptimizeMany(sv.groups, budgets, recompute.Options{
		Quantum:    sv.quantum,
		DisableGCD: sv.pl.opts.DisableGCD,
	}, sols)
	served := 0
	for k := range sols {
		if sols[k].DPCells > 0 {
			served++
			sv.st.QuantaBeforeGCD += sols[k].QuantaBeforeGCD
			sv.st.QuantaAfterGCD += sols[k].QuantaAfterGCD
		}
	}
	if cells > 0 {
		sv.st.KnapsackRuns++
		sv.st.KnapsackCells += cells
		sv.st.KnapsackLiveCells += live
		sv.st.KnapsackShared += served - 1
	}
	return recompute.TotalOptionalTime(sv.groups)
}

// fixedPolicyEntry prices a class at stage s under classic full or no
// recomputation, from the per-kind tables alone. It saves no unit by key.
func (pl *Planner) fixedPolicyEntry(s int, sh *classShape, input int64) coststore.Entry {
	t := pl.table
	mem := sh.static
	mem.InFlight = memory.InFlight(pl.strat.PP, s)
	sol := recompute.Solution{Feasible: true, SavedBytes: input}
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
// up. Plan is safe to call concurrently on one planner; the calls run one
// after another.
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
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.sv.search(ctx, nil)
}

// search runs the configured search under the stage scale (nil: nominal
// costs) and assembles the plan.
func (sv *stageSolver) search(ctx context.Context, scale []float64) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl := sv.pl
	tr := obs.TracerFrom(ctx)
	searchStart := pl.clock()
	L := len(pl.layers)
	p := pl.strat.PP

	// The DP asks "cancelled?" before each cost it looks up (Algorithm 1:
	// each it resolves); ctx.Err() takes the context's mutex, so it reads a
	// flag armed by the context instead.
	var cancelled atomic.Bool
	disarm := context.AfterFunc(ctx, func() { cancelled.Store(true) })
	defer disarm()

	// Try the incremental fast path first: if the last search's DP memo is
	// still valid, recompute only the levels the scale change invalidated.
	spClaim := tr.Start("search.invalidate", obs.CatSearch)
	ws := sv.warmStart(scale)
	spClaim.End()

	// A lookup that misses counts itself as it happens, so a search that fails
	// still counts the lookups that cost it something; the hits are the rest
	// of the DP's own cell count, counted once at the end. A cancelled search's
	// partial solution is discarded below in favor of ctx.Err(), and its memo
	// is dropped.
	before := sv.st.CostEvaluations
	rows := sv.rows(tr, scale, &cancelled)

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
		// PartitionExact keeps at most this many Pareto states per DP cell.
		const maxFrontier = 128
		sol, _, err := partition.SolveExact(L, p, pl.n, &rows, maxFrontier)
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
		total, w, e, m, ok = partition.Evaluate(bounds, pl.n, &rows)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: %s with even partitioning exceeds the %s memory capacity (OOM)",
				pl.opts.Recompute, pl.cluster.Device.Name)
		}
		cellsAdd = p
	default:
		sol, err := partition.SolveRows(L, p, pl.n, &rows, ws.memo, ws.stale)
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
	// structurally valid but stale solution; never hand it out. Such a DP can
	// even leave its memo marked valid, which is why only this path keeps it.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spStages := tr.Start("search.stages", obs.CatSearch)
	// The DP evaluated every chosen stage, so these lookups are hits.
	plan := pl.assemble(bounds, scale, total, w, e, m)
	spStages.End()
	// cellsAdd counts exactly the cost evaluations the DP made (partition.
	// Plan.DPCells); the assembly read one more entry per stage.
	hits := cellsAdd + p - (sv.st.CostEvaluations - before)
	sv.st.CostEvaluations += hits
	sv.st.CacheHits += hits
	sv.st.PartitionCells += cellsAdd
	sv.st.FrontierStates += frontierAdd
	sv.st.WarmStartCells += warmAdd
	if ws.ok {
		sv.st.ReplanIncremental++
		sv.st.InvalidatedIsoClasses += ws.invalidated
	}
	sv.st.SearchWall += pl.clock().Sub(searchStart)
	plan.Search = *sv.st
	// Keep the completed search's memo and the scale it was computed under;
	// the next search warm-starts from here.
	sv.memo, sv.memoScale = ws.memo, scale
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
	bw := pl.cluster.PipelineBandwidth()
	plan.CommFwd = pl.prof.CommTime(bw, pl.cluster.LinkLatency)
	plan.CommBwd = plan.CommFwd // gradient of the boundary tensor, same shape
	for s := 0; s+1 < len(bounds); s++ {
		c := pl.table.cost(pl.table.index(s, bounds[s], bounds[s+1]-1))
		if scale != nil {
			c.Fwd *= scale[s]
			c.Bwd *= scale[s]
		}
		sol := c.Sol
		sol.Saved = nil // the plan gets its own map, not the table's vector
		plan.Stages = append(plan.Stages, StagePlan{
			Stage:     s,
			LayerLo:   bounds[s],
			LayerHi:   bounds[s+1],
			Fwd:       c.Fwd,
			Bwd:       c.Bwd,
			Recompute: sol,
			Saved:     c.Strategy(),
			Mem:       c.Mem,
		})
	}
	return plan
}

// CostFor exposes the cached per-range cost model: the modeled nominal
// forward and backward times (seconds per micro-batch) and memory
// feasibility of layers i..j (inclusive) executed as stage s. Tools and tests
// use it to evaluate partitionings the search did not choose.
func (pl *Planner) CostFor(s, i, j int) (fwd, bwd float64, ok bool) {
	if s < 0 || s >= pl.strat.PP || i < 0 || j >= len(pl.layers) || i > j {
		return 0, 0, false
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	idx, ok, hit := pl.sv.lookup(nil, s, i, j)
	if hit {
		pl.stats.CostEvaluations++
		pl.stats.CacheHits++
	}
	c := pl.table.hot[idx]
	return c.F, c.B, ok
}

// LayerCount returns the length of the partitionable layer sequence.
func (pl *Planner) LayerCount() int { return len(pl.layers) }

// StatsSnapshot returns a copy of the cumulative search counters, safe to
// take while other goroutines plan on this planner.
func (pl *Planner) StatsSnapshot() SearchStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
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
			m = &recompute.Group{Key: kind + wholeLayer, Count: g.Count}
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
