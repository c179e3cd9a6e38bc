package core

import (
	"sort"

	"adapipe/internal/coststore"
	"adapipe/internal/memory"
	"adapipe/internal/model"
	"adapipe/internal/partition"
	"adapipe/internal/profile"
	"adapipe/internal/recompute"
)

// The planner's cost table (DESIGN §6). One dense array, indexed by
// (stage, isomorphism class), is at once the §5.3 isomorphic-range cache, the
// working set the partition DP reads, the input of the incremental replanner
// and the front of the shared cost store. Beside it sit the per-class shape
// table and the knapsack group templates, built once at construction, that
// make everything around a knapsack solve O(1) per class: a search walks a
// layer range only inside the knapsack itself, never to re-sum its static
// bytes, parameters or forward/backward time. Construction is O(L) shape
// work plus an O(pL) zeroed allocation; with DisableIsomorphism every raw
// (s, i, j) range is its own class and the entry array grows to O(pL²), the
// shapes stay O(L).

// numKinds is the number of layer kinds; isoKindSlots the size of the class
// code axis, which packs firstKind*2 + endsWithHead.
const (
	numKinds     = int(model.Head) + 1
	isoKindSlots = 2 * numKinds
)

// classShape is what a stage cost needs to know about the layers of one
// isomorphism class, independent of the stage that runs them. The float
// fields are accumulated left to right over the class's layer sequence, so
// they carry exactly the bits a sequential sum over any range of the class
// produces.
type classShape struct {
	counts [numKinds]int32
	kinds  int // bit k set when the class has a layer of kind k
	params int64
	// static is the Const of §4.2 for the class (SavedPerMicro and InFlight
	// are per stage and stay zero here).
	static   memory.Breakdown
	fwd, bwd float64
	// replay is the forward time of the class's decoder layers — what
	// classic full recomputation re-executes in the backward pass.
	replay float64
}

// groupTemplate is one knapsack group with its Count left to the class.
type groupTemplate struct {
	group recompute.Group
	kind  model.LayerKind
}

// classClaim is one entry a class solve prices: the class at stage s, with
// the per-micro-batch budget the static gate left it.
type classClaim struct {
	idx, s   int
	perMicro int64
}

// stageSolver is a planner's search state, which the planner's mutex guards
// as a whole: the attached cost source, the warm-start memo, and a class
// solve's scratch — the knapsack arena, the group list handed to it, the
// entries, budgets and strategies of the class solve in progress. The filled
// knapsack table lives in knap and is overwritten by the next solve. Its
// methods run only inside an exported Planner method, which holds the mutex.
type stageSolver struct {
	pl *Planner
	// src, when non-nil, is the shared second-level cost store consulted
	// when a class is missing from the table (SetCostSource); family is the
	// 32-byte fingerprint prefixing this planner's store keys.
	src    CostSource
	family []byte
	// memo holds the partition-DP table of the last completed search, kept
	// to warm-start the next one; nil before the first search completes,
	// after a search that did not complete, and always under PartitionEven
	// and PartitionExact, which search cold every time. memoScale is the
	// stage-scale vector it was computed under (nil = nominal), compared
	// bit-wise against the next search's to decide which DP levels it must
	// recompute.
	memo      *partition.Memo
	memoScale []float64
	// st is the planner's stats, which the solver counts into on behalf of
	// the exported method holding mu.
	st *SearchStats

	knap    recompute.Solver
	groups  []recompute.Group
	claims  []classClaim
	budgets []int64
	sols    []recompute.Solution
	// The class solve in progress, which solveClass sets and entry reads;
	// compute is sv.entry bound once, so the cost source gets it for free.
	sh             *classShape
	input, quantum int64
	solved, k      int // the first claim read off the table; the claim priced
	optional       float64
	compute        func() coststore.Entry
	// counts and entries are the unused tails of the chunks strategy vectors
	// and published entries are carved from, never reused: the table and the
	// store point into them.
	counts  []int32
	entries []coststore.Entry
}

// carve returns n zeroed counts from the solver's count chunk.
func (sv *stageSolver) carve(n int) []int32 {
	if len(sv.counts) < n {
		sv.counts = make([]int32, max(1024, n))
	}
	v := sv.counts[:n:n]
	sv.counts = sv.counts[n:]
	return v
}

// keep copies c into the solver's entry chunk and returns its address there.
func (sv *stageSolver) keep(c coststore.Entry) *coststore.Entry {
	if len(sv.entries) == 0 {
		sv.entries = make([]coststore.Entry, 64)
	}
	e := &sv.entries[0]
	sv.entries = sv.entries[1:]
	*e = c
	return e
}

type costTable struct {
	L, p int
	iso  bool
	// stride is the number of entries per stage.
	stride int
	// first[i] is the class code of a range starting at layer i, before the
	// endsWithHead bit.
	first []int
	// minStart[s*numKinds+k] is the first layer of kind k at which some
	// partitioning can start stage s (partition.StageStarts), or L when there
	// is none.
	minStart []int
	shapes   []classShape
	// units is the number of computation units in a layer of each kind;
	// keepUnits and keepBytes are how many of them, and how many activation
	// bytes, a layer pins under the fixed recomputation policies (zero in
	// the searched modes, which ask the knapsack instead).
	units, keepUnits [numKinds]int
	keepBytes        [numKinds]int64
	templates        []groupTemplate
	// keys[sh.kinds] names the groups of the classes with those kinds, in
	// their order; every entry of the classes shares it.
	keys [1 << numKinds][]string

	// hot is the hot half of the entries, all the partition DP reads: the
	// nominal (unscaled) F and B, written once with State, when the entry
	// is published (partition.Absent until then).
	hot []partition.Cell
	// bounds[k] is class shape k's forward and backward time, the lower
	// bound that cuts Algorithm 1's scans (DESIGN §5).
	bounds []partition.Bound
	// solved is the cold half of the entries, set only for classes that
	// were actually solved: the full cost, with the strategy and memory
	// breakdown plan assembly needs.
	solved []*coststore.Entry
}

// newCostTable builds the shape table and group templates for the planner's
// immutable inputs and allocates the (empty) entry array.
func newCostTable(pl *Planner) *costTable {
	L := len(pl.layers)
	p := pl.strat.PP
	t := &costTable{L: L, p: p, iso: !pl.opts.DisableIsomorphism, first: make([]int, L)}
	for i, l := range pl.layers {
		t.first[i] = 2 * int(l.Kind)
	}
	t.minStart = make([]int, p*numKinds)
	for k := range t.minStart {
		t.minStart[k] = L
	}
	for s := 0; s < p; s++ {
		lo, hi := partition.StageStarts(t.L, t.p, s)
		for i := hi; i >= lo; i-- {
			t.minStart[s*numKinds+int(pl.layers[i].Kind)] = i
		}
	}

	var layer [numKinds]profile.LayerCost
	var kindParams, kindBuffer [numKinds]int64
	for k := range layer {
		kind := model.LayerKind(k)
		one := []model.Layer{{Kind: kind}}
		layer[k] = pl.prof.Layers[kind]
		kindParams[k] = pl.cfg.LayerParams(kind)
		kindBuffer[k] = memory.RecomputeBuffer(pl.prof, one)
		t.units[k] = len(layer[k].Units)
		switch pl.opts.Recompute {
		case RecomputeFull:
			// Classic full recomputation keeps only each decoder block's
			// input and replays the whole block; embedding and head keep
			// everything.
			t.keepBytes[k] = memory.SavedBoundary(pl.prof, one)
			if kind != model.Attention && kind != model.FFN {
				t.keepUnits[k] = t.units[k]
			}
		case RecomputeNone:
			t.keepBytes[k] = memory.SavedAll(pl.prof, one)
			t.keepUnits[k] = t.units[k]
		}
	}
	extend := func(sh *classShape, kind model.LayerKind) {
		buffer := sh.static.Buffer
		if sh.counts[kind] == 0 {
			// The buffer holds one layer of each decoder kind present.
			buffer += kindBuffer[kind]
		}
		sh.counts[kind]++
		sh.kinds |= 1 << kind
		sh.params += kindParams[kind]
		sh.fwd += layer[kind].FwdTime
		sh.bwd += layer[kind].BwdTime
		if kind == model.Attention || kind == model.FFN {
			sh.replay += layer[kind].FwdTime
		}
		sh.static = memory.Static(sh.params, buffer, pl.strat, pl.opts.Memory)
	}

	// Classes that stop short of the head: one left-to-right walk from the
	// first layer of each kind covers every length.
	t.shapes = make([]classShape, (L+1)*isoKindSlots)
	var walked [numKinds]bool
	for i0 := 0; i0 < L-1; i0++ {
		if walked[pl.layers[i0].Kind] {
			continue
		}
		walked[pl.layers[i0].Kind] = true
		var sh classShape
		for j := i0; j < L-1; j++ {
			extend(&sh, pl.layers[j].Kind)
			t.shapes[(j-i0+1)*isoKindSlots+t.first[i0]] = sh
		}
	}
	// Classes that end with the head are the class one layer shorter (the
	// zero shape for the head alone) extended by the head.
	for i := 0; i < L; i++ {
		n := L - i
		sh := t.shapes[(n-1)*isoKindSlots+t.first[i]]
		extend(&sh, pl.layers[L-1].Kind)
		t.shapes[n*isoKindSlots+t.first[i]+1] = sh
	}

	for k := range layer {
		kind := model.LayerKind(k)
		var groups []recompute.Group
		for _, uc := range layer[k].Units {
			groups = append(groups, recompute.Group{
				Key:         unitKey(kind, uc.Unit.Kind),
				FwdTime:     uc.FwdTime,
				Bytes:       uc.SavedBytes,
				AlwaysSaved: uc.Unit.AlwaysSaved,
			})
		}
		recompute.SortGroups(groups)
		if pl.opts.Recompute == RecomputeLayerLevel {
			groups = coarsenToLayers(groups)
		}
		for _, g := range groups {
			t.templates = append(t.templates, groupTemplate{group: g, kind: kind})
		}
	}
	sort.Slice(t.templates, func(a, b int) bool { return t.templates[a].group.Key < t.templates[b].group.Key })
	for m := range t.keys {
		for _, tp := range t.templates {
			if m>>tp.kind&1 != 0 {
				t.keys[m] = append(t.keys[m], tp.group.Key)
			}
		}
	}

	t.stride = len(t.shapes)
	if !t.iso {
		t.stride = L * L
	}
	t.bounds = make([]partition.Bound, len(t.shapes))
	for k, sh := range t.shapes {
		t.bounds[k] = partition.Bound{F: sh.fwd, B: sh.bwd}
	}
	t.hot = make([]partition.Cell, pl.strat.PP*t.stride)
	t.solved = make([]*coststore.Entry, len(t.hot))
	return t
}

// shapeIndex maps a layer range onto its isomorphism class (§5.3): ranges
// with the same length, first-layer kind and head inclusion have identical
// costs because transformer layers of one kind are homogeneous.
func (t *costTable) shapeIndex(i, j int) int {
	code := t.first[i]
	if j == t.L-1 {
		code++
	}
	return (j-i+1)*isoKindSlots + code
}

// index maps layers i..j run as stage s onto their table entry.
func (t *costTable) index(s, i, j int) int {
	if !t.iso {
		return (s*t.L+i)*t.L + j
	}
	return s*t.stride + t.shapeIndex(i, j)
}

// row is the partition DP's row view of stage s from layer i
// (partition.Rows.Base): the entry of layers i..i, or of i..L−1 at the last
// stage, and the shape of i..i. Along the row the entries step by the class
// length (isoKindSlots) under isomorphism and by one layer without it, the
// shapes by the class length always: a scanned stage is never the last, so
// its ranges never gain the head bit.
func (t *costTable) row(s, i int) (cell, bound int) {
	if s == t.p-1 {
		return t.index(s, i, t.L-1), 0
	}
	return t.index(s, i, i), t.shapeIndex(i, i)
}

// reachable reports whether some partitioning runs the class of layers i..j
// as stage s — the only (stage, class) entries a search can ever read. The
// last stage runs exactly the classes that end with the head; an earlier
// stage s ends by layer L−p+s. With isomorphism the class is reachable when
// its earliest member at stage s is: ranges of one first-layer kind and
// length are interchangeable.
func (t *costTable) reachable(s, i, j int) bool {
	if (s == t.p-1) != (j == t.L-1) {
		return false
	}
	if t.iso && s < t.p-1 {
		n := j - i
		i = t.minStart[s*numKinds+t.first[i]/2]
		j = i + n
	}
	lo, hi := partition.StageStarts(t.L, t.p, s)
	return lo <= i && i <= hi && j <= t.L-t.p+s
}

// groups instantiates the knapsack groups of a class into buf: the templates
// of the kinds present, in key order, with the class's layer counts.
func (t *costTable) groups(sh *classShape, buf []recompute.Group) []recompute.Group {
	buf = buf[:0]
	for k := range t.templates {
		if c := sh.counts[t.templates[k].kind]; c > 0 {
			g := t.templates[k].group
			g.Count = int(c)
			buf = append(buf, g)
		}
	}
	return buf
}

// cost returns the full nominal stage cost of a published entry; a class
// settled by the static gate alone has the zero cost.
func (t *costTable) cost(idx int) coststore.Entry {
	if c := t.solved[idx]; c != nil {
		return *c
	}
	return coststore.Entry{}
}

// publish installs c, kept and never written again, into the absent entry
// idx.
func (t *costTable) publish(idx int, c *coststore.Entry) {
	e := &t.hot[idx]
	e.F, e.B = c.Fwd, c.Bwd
	t.solved[idx] = c
	e.State = partition.Infeasible
	if c.OK {
		e.State = partition.Feasible
	}
}

// publishedAt counts stage s's published classes.
func (t *costTable) publishedAt(s int) int {
	n := 0
	for k := s * t.stride; k < (s+1)*t.stride; k++ {
		if t.hot[k].State != partition.Absent {
			n++
		}
	}
	return n
}
