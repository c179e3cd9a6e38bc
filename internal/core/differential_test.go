package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adapipe/internal/coststore"
	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// The differential runner (DESIGN §14). The search machinery — shared
// knapsack tables, the isomorphic-range cache, the cost store, the warm-start
// memo, concurrent and interrupted solves — may change how a plan is found,
// never what it is. Each row is planned cold on a fresh planner with no store;
// that plan's JSON is the reference, and every leg must reproduce it byte for
// byte — or, where the leg changes an input, reproduce a cold planner for
// that input. The rows are memory-tight so the legs run on configurations
// whose stages fill knapsack tables and save different sets.

// row is one planner configuration: a model and pipeline shape under a
// memory budget, with the three search knobs and the scan-cut switch. Its
// planner method is the package tests' one planner builder.
type row struct {
	name    string
	model   model.Config
	tp, pp  int // tp 0 means 1
	n, seq  int // n 0 means 4·pp micro-batches
	reserve float64
	part    PartitionMode
	rec     RecomputeMode
	noIso   bool
	// uncut runs Algorithm 1's scans without their lower-bound cut.
	uncut bool
	// stride samples the (i, j) ranges the class-solve oracles walk on the
	// row; 0 leaves the row to the runner.
	stride int
}

func (r row) planner(t testing.TB) *Planner {
	t.Helper()
	opts := DefaultOptions()
	opts.MemoryReserve, opts.Partition, opts.Recompute, opts.DisableIsomorphism = r.reserve, r.part, r.rec, r.noIso
	pl, err := NewPlanner(r.model, hardware.ClusterA(), parallel.Strategy{TP: max(r.tp, 1), PP: r.pp, DP: 1},
		parallel.Config{GlobalBatch: cmp.Or(r.n, 4*r.pp), MicroBatch: 1, SeqLen: r.seq}, opts)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	pl.uncut = r.uncut
	return pl
}

// ranges lists the (i, j) layer ranges the oracles sample on the row.
func (r row) ranges(L int) (out [][2]int) {
	for i, n := 0, 0; i < L; i++ {
		for j := i; j < L; j++ {
			if n++; n%r.stride == 0 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// roomy is the tiny planner of the non-differential tests: at seq 2048 every
// class fits whole, so it fills no knapsack table.
var roomy = row{name: "tiny6_p4", model: model.Tiny(6), pp: 4, n: 8, seq: 2048, reserve: 0.15}

var gpt3 = row{name: "gpt3_p8", model: model.GPT3_175B(), tp: 8, pp: 8, seq: 16384, reserve: 0.15, stride: 211}

// shapes are the runner's memory-tight rows.
var shapes = []row{
	{name: "tiny6_p4_seq16k", model: model.Tiny(6), pp: 4, n: 6, seq: 16384, reserve: 0.93, stride: 1},
	{name: "tiny6_p4_seq64k", model: model.Tiny(6), pp: 4, n: 6, seq: 65536, reserve: 0.90, stride: 1},
	{name: "tiny8_p6", model: model.Tiny(8), pp: 6, n: 8, seq: 16384, reserve: 0.93},
	{name: "tiny10_p6", model: model.Tiny(10), pp: 6, n: 8, seq: 16384, reserve: 0.93},
	{name: "tiny3_p7", model: model.Tiny(3), pp: 7, n: 9, seq: 16384, reserve: 0.93}, // L = 8
	{name: "tiny3_p2", model: model.Tiny(3), pp: 2, n: 4, seq: 16384, reserve: 0.93},
	gpt3,
	{name: "llama2_p8", model: model.Llama2_70B(), tp: 8, pp: 8, seq: 16384, reserve: 0.15, stride: 167},
}

// fast reports whether the row's replans take the incremental fast path: it
// needs Algorithm 1's memo and the isomorphism cache.
func (r row) fast() bool { return r.part == PartitionAdaptive && !r.noIso }

// variants crosses a shape with the partition modes, the searched
// recomputation modes and iso on/off. The tensor-parallel rows (GPT-3,
// Llama-2) run Algorithm 1 and even partitioning with the defaults only: an
// exact search on them takes a second or more.
func (r row) variants() []row {
	parts := []PartitionMode{PartitionAdaptive, PartitionEven, PartitionExact}
	recs := []RecomputeMode{RecomputeAdaptive, RecomputeLayerLevel}
	isoOff := []bool{false, true}
	if r.tp > 1 {
		parts, recs, isoOff = parts[:2], recs[:1], isoOff[:1]
	}
	var out []row
	for _, part := range parts {
		for _, rec := range recs {
			for _, noIso := range isoOff {
				v := r
				v.name = fmt.Sprintf("%s/part=%s/rec=%s/noiso=%v", r.name, part, rec, noIso)
				v.part, v.rec, v.noIso = part, rec, noIso
				out = append(out, v)
			}
		}
	}
	return out
}

// diff is one row under test: the cold reference plan, its bytes, and the
// knapsack tables the cold search filled with the scan cut off.
type diff struct {
	row
	ref    *Plan
	json   []byte
	tables int
}

// newDiff plans r on a fresh planner with no store; err is the search's. A
// second cold search with the scan cut off must give the same bytes; its
// table count is the row's, since how many tables the cut spares is no
// measure of what the row exercises.
func newDiff(t testing.TB, r row) (*diff, error) {
	t.Helper()
	r.n = cmp.Or(r.n, 4*r.pp)
	pl := r.planner(t)
	p, err := pl.Plan()
	if err != nil {
		return nil, err
	}
	d := &diff{row: r, ref: p, json: planned(t, pl, p, nil)}
	r.uncut = true
	uncut := r.planner(t)
	up, err := uncut.Plan()
	d.same(t, uncut, up, err)
	d.tables = uncut.StatsSnapshot().KnapsackRuns
	return d, nil
}

// planned requires p to be a valid plan of pl and pl's counters to be
// settled, and returns p's JSON.
func planned(t testing.TB, pl *Planner, p *Plan, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(pl.LayerCount()); err != nil {
		t.Fatal(err)
	}
	settled(t, pl)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// same is planned plus byte-identity with the reference.
func (d *diff) same(t testing.TB, pl *Planner, p *Plan, err error) {
	t.Helper()
	if got := planned(t, pl, p, err); !bytes.Equal(got, d.json) {
		t.Fatalf("plan differs from the cold reference:\n%s\nvs\n%s", got, d.json)
	}
}

// settled requires the effort counters of pl to hold their invariant: a
// lookup that misses fills at most one table.
func settled(t testing.TB, pl *Planner) {
	t.Helper()
	if s := pl.StatsSnapshot(); s.KnapsackRuns+s.CacheHits > s.CostEvaluations {
		t.Errorf("runs %d + hits %d > evaluations %d", s.KnapsackRuns, s.CacheHits, s.CostEvaluations)
	}
}

// storePlan plans r on a fresh planner attached to src.
func storePlan(t testing.TB, r row, src CostSource) (*Planner, *Plan, error) {
	t.Helper()
	pl := r.planner(t)
	if err := pl.SetCostSource(src); err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	return pl, p, err
}

// filled is the store-cold leg: a fresh store, filled by a search that must
// give the reference bytes.
func (d *diff) filled(t testing.TB) *coststore.Store {
	t.Helper()
	st := coststore.New(1 << 15)
	pl, p, err := storePlan(t, d.row, st)
	d.same(t, pl, p, err)
	if pl.StatsSnapshot().StoreMisses == 0 {
		t.Error("cold store recorded no misses")
	}
	return st
}

// warm requires a search over a store already holding the row's family to
// give the reference bytes without filling a table or missing the store.
func (d *diff) warm(t testing.TB, st *coststore.Store) {
	t.Helper()
	pl, p, err := storePlan(t, d.row, st)
	d.same(t, pl, p, err)
	if s := pl.StatsSnapshot(); s.KnapsackRuns != 0 || s.StoreMisses != 0 || s.StoreHits == 0 {
		t.Errorf("warm store: %d tables, %d misses, %d hits; want 0, 0, > 0", s.KnapsackRuns, s.StoreMisses, s.StoreHits)
	}
}

var errPanicked = errors.New("search panicked")

// interrupt runs the row's search on planners whose cost source calls fire
// inside its middle and inside its last compute. The search must fail with
// want (errPanicked for a panic), and the planner's next Plan must give the
// reference bytes.
func (d *diff) interrupt(t *testing.T, want error, fire func(cancel context.CancelFunc)) {
	count := &scriptedSource{}
	pl, p, err := storePlan(t, d.row, count)
	d.same(t, pl, p, err)
	n := count.calls.Load()
	for _, at := range []int32{n/2 + 1, n} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pl := d.planner(t)
		if err := pl.SetCostSource(&scriptedSource{at: at, fire: func() { fire(cancel) }}); err != nil {
			t.Fatal(err)
		}
		err := errPanicked
		func() {
			defer func() { _ = recover() }()
			_, err = pl.PlanContext(ctx)
		}()
		if !errors.Is(err, want) {
			t.Fatalf("search interrupted in compute %d of %d returned %v, want %v", at, n, err, want)
		}
		p, err := pl.Plan()
		d.same(t, pl, p, err)
	}
}

// scaleVectors is the straggler repricing sequence the replan leg drives:
// identity, a single mid-pipeline bump, a front-stage straggler, every stage
// at once, an extreme 10x degradation, and a back-to-nominal reset.
func scaleVectors(p int) [][]float64 {
	single := ones(p)
	single[(p-1)/2] = 1.25
	front := ones(p)
	front[0] = 2
	all := make([]float64, p)
	for s := range all {
		all[s] = 1.1
	}
	extreme := ones(p)
	extreme[p-1] = 10
	return [][]float64{ones(p), single, front, all, extreme, ones(p)}
}

// scaledCold is a cold search of the row on a fresh planner under scale,
// run as a replan runs its search: under the planner's mutex.
func (d *diff) scaledCold(t testing.TB, scale []float64) (*Planner, []byte) {
	t.Helper()
	pl := d.planner(t)
	pl.mu.Lock()
	p, err := pl.sv.search(context.Background(), scale)
	pl.mu.Unlock()
	return pl, planned(t, pl, p, err)
}

// legs are the runner's checks. Each builds its own planners from the row,
// so any of them can run alone.
var legs = []struct {
	name string
	run  func(*testing.T, *diff)
}{
	{"repeat", func(t *testing.T, d *diff) {
		pl := d.planner(t)
		p, err := pl.Plan()
		d.same(t, pl, p, err)
		before := pl.StatsSnapshot().KnapsackRuns
		p, err = pl.Plan()
		d.same(t, pl, p, err)
		if n := pl.StatsSnapshot().KnapsackRuns - before; n != 0 {
			t.Errorf("repeat search filled %d tables", n)
		}
	}},
	{"context", func(t *testing.T, d *diff) {
		pl := d.planner(t)
		p, err := pl.PlanContext(context.Background())
		d.same(t, pl, p, err)
	}},
	{"store-cold", func(t *testing.T, d *diff) { d.filled(t) }},
	{"store-warm", func(t *testing.T, d *diff) { d.warm(t, d.filled(t)) }},
	{"store-restored", func(t *testing.T, d *diff) {
		path := filepath.Join(t.TempDir(), "store.json")
		if err := d.filled(t).SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		st := coststore.New(1 << 15)
		if err := st.LoadSnapshot(path); err != nil {
			t.Fatal(err)
		}
		d.warm(t, st)
	}},
	{"store-sibling", func(t *testing.T, d *diff) {
		// A different global batch changes only the partition DP: every
		// stage cost is the family's. A different budget is another family.
		st := d.filled(t)
		batch, budget := d.row, d.row
		batch.n += d.pp
		budget.reserve -= 0.05
		pl, p, err := storePlan(t, batch, st)
		planned(t, pl, p, err)
		if s := pl.StatsSnapshot(); s.StoreMisses != 0 || s.StoreHits == 0 {
			t.Errorf("global-batch sibling: %d misses, %d hits; want 0, > 0", s.StoreMisses, s.StoreHits)
		}
		pl, p, err = storePlan(t, budget, st)
		planned(t, pl, p, err)
		if hits := pl.StatsSnapshot().StoreHits; hits != 0 {
			t.Errorf("budget sibling got %d store hits; families must not collide", hits)
		}
	}},
	{"store-partial", func(t *testing.T, d *diff) {
		// The second search finds every other key of a class missing, so
		// tables are filled from a claim part-way down the claim list.
		src := &forgetfulSource{entries: map[coststore.Key]coststore.Entry{}}
		for range 2 {
			pl, p, err := storePlan(t, d.row, src)
			d.same(t, pl, p, err)
		}
	}},
	{"lossless", func(t *testing.T, d *diff) {
		// §5.3's reductions are pure speedups: turning the GCD reduction off,
		// or flipping the isomorphism cache, plans the same bytes. Iso off makes
		// a tensor-parallel row's partition search ~50x slower, so those rows
		// flip it only under even partitioning, which reads p entries.
		noGCD := d.planner(t)
		noGCD.opts.DisableGCD = true
		pls := []*Planner{noGCD}
		if flipped := d.row; d.tp <= 1 || d.part == PartitionEven {
			flipped.noIso = !d.noIso
			pls = append(pls, flipped.planner(t))
		}
		for _, pl := range pls {
			p, err := pl.Plan()
			d.same(t, pl, p, err)
		}
	}},
	{"concurrent", legConcurrent},
	{"cancelled", func(t *testing.T, d *diff) {
		d.interrupt(t, context.Canceled, func(cancel context.CancelFunc) {
			// Not a synchronisation: the pause lets the context's AfterFunc arm
			// the search's flag, so every lookup after this solve is neutered.
			cancel()
			time.Sleep(time.Millisecond)
		})
	}},
	{"panicked", func(t *testing.T, d *diff) {
		d.interrupt(t, errPanicked, func(context.CancelFunc) { panic("scripted source failure") })
	}},
	{"replan", legReplan},
	{"uncut", legUncut},
}

// legConcurrent races, under -race in `make race`: K searches on one planner,
// each reading its stages back through CostFor; K planners of one family
// (their global batches differ) on one store, each against its solo cold
// plan; and incremental replans against nominal searches on one planner,
// each against a cold search under its own scale.
func legConcurrent(t *testing.T, d *diff) {
	const K = 3
	solo, soloRuns := make([][]byte, K), 0
	stored := make([]*Planner, K)
	store := coststore.New(1 << 15)
	for k := range stored {
		sib := d.row
		sib.n += k
		pl := sib.planner(t)
		p, err := pl.Plan()
		solo[k], soloRuns = planned(t, pl, p, err), soloRuns+pl.StatsSnapshot().KnapsackRuns
		stored[k] = sib.planner(t)
		if err := stored[k].SetCostSource(store); err != nil {
			t.Fatal(err)
		}
	}
	scale := scaleVectors(d.pp)[1]
	_, scaled := d.scaledCold(t, scale)
	shared, replanned := d.planner(t), d.planner(t)
	old, err := replanned.Plan()
	d.same(t, replanned, old, err)

	plans, errs := make([]*Plan, 3*K), make([]error, 3*K)
	var wg sync.WaitGroup
	for k := range K {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if plans[k], errs[k] = shared.Plan(); errs[k] != nil {
				return
			}
			for s, sp := range d.ref.Stages {
				if f, b, ok := shared.CostFor(s, sp.LayerLo, sp.LayerHi-1); !ok || f != sp.Fwd || b != sp.Bwd {
					errs[k] = fmt.Errorf("CostFor(%d) = %g, %g, %v; plan stage %g, %g", s, f, b, ok, sp.Fwd, sp.Bwd)
				}
			}
		}()
		go func() {
			defer wg.Done()
			plans[K+k], errs[K+k] = stored[k].PlanContext(context.Background())
		}()
		go func() {
			defer wg.Done()
			if k%2 == 0 {
				plans[2*K+k], errs[2*K+k] = replanned.Plan()
			} else if r, err := replanned.ReplanWithScale(old, scale); err != nil {
				errs[2*K+k] = err
			} else {
				plans[2*K+k] = r.New
			}
		}()
	}
	wg.Wait()

	sharedRuns := 0
	for k := range K {
		d.same(t, shared, plans[k], errs[k])
		if got := planned(t, stored[k], plans[K+k], errs[K+k]); !bytes.Equal(got, solo[k]) {
			t.Errorf("planner %d over the shared store differs from its solo cold plan:\n%s\nvs\n%s", k, got, solo[k])
		}
		sharedRuns += stored[k].StatsSnapshot().KnapsackRuns
		// A search racing the replans sees nominal costs: no replan leaves
		// its scale behind.
		want := scaled
		if k%2 == 0 {
			want = d.json
		}
		if got := planned(t, replanned, plans[2*K+k], errs[2*K+k]); !bytes.Equal(got, want) {
			t.Errorf("concurrent call %d on the replanned planner differs from a cold search under its scale:\n%s\nvs\n%s", k, got, want)
		}
	}
	if st := store.StatsSnapshot(); st.Hits+st.Shared == 0 {
		t.Errorf("the store served no lookup: %+v", st)
	}
	if soloRuns > 0 && sharedRuns >= soloRuns {
		t.Errorf("%d planners over one store filled %d tables, %d alone", K, sharedRuns, soloRuns)
	}
}

// legReplan drives the scaleVectors sequence through ReplanWithScale on one
// warm planner. Every step must give a fresh planner's cold bytes under the
// same scale and fill no more tables than that search; the incremental fast
// path must be taken exactly when partitioning is adaptive and iso is on.
func legReplan(t *testing.T, d *diff) {
	pl := d.planner(t)
	p, err := pl.Plan()
	d.same(t, pl, p, err)
	for step, scale := range scaleVectors(d.pp) {
		before := pl.StatsSnapshot()
		r, err := pl.ReplanWithScale(p, scale)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		after := pl.StatsSnapshot()
		if got := after.ReplanIncremental - before.ReplanIncremental; (got == 1) != d.fast() {
			t.Fatalf("step %d: ReplanIncremental advanced by %d", step, got)
		}
		cold, want := d.scaledCold(t, scale)
		if got := planned(t, pl, r.New, nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d (scale %v): replan differs from cold search:\n%s\nvs\n%s", step, scale, got, want)
		}
		if incr, runs := after.KnapsackRuns-before.KnapsackRuns, cold.StatsSnapshot().KnapsackRuns; incr > runs {
			t.Fatalf("step %d: replan filled %d tables, cold search %d", step, incr, runs)
		}
		p = r.New
	}
	if s := pl.StatsSnapshot(); d.fast() && (s.InvalidatedIsoClasses == 0 || s.WarmStartCells == 0) {
		t.Errorf("fast path invalidated %d classes and reused %d cells over the sequence", s.InvalidatedIsoClasses, s.WarmStartCells)
	}
}

// legUncut drives the scaleVectors sequence through ReplanWithScale on one
// warm planner whose scans run uncut. Every step must give a cut cold
// search's bytes under the same scale — the cut changes which cells a search
// evaluates, never a state it keeps — and the uncut searches must evaluate at
// least the cells the cut ones did: as many under even and exact
// partitioning, which have no cut.
func legUncut(t *testing.T, d *diff) {
	u := d.row
	u.uncut = true
	pl := u.planner(t)
	p, err := pl.Plan()
	d.same(t, pl, p, err)
	cells, uncutCells := d.ref.Search.PartitionCells, pl.StatsSnapshot().PartitionCells
	for step, scale := range scaleVectors(d.pp) {
		before := pl.StatsSnapshot().PartitionCells
		r, err := pl.ReplanWithScale(p, scale)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cold, want := d.scaledCold(t, scale)
		if got := planned(t, pl, r.New, nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d (scale %v): uncut replan differs from a cut cold search:\n%s\nvs\n%s", step, scale, got, want)
		}
		if !d.fast() {
			cells += cold.StatsSnapshot().PartitionCells
			uncutCells += pl.StatsSnapshot().PartitionCells - before
		}
		p = r.New
	}
	if uncutCells < cells || (d.part != PartitionAdaptive && uncutCells != cells) {
		t.Errorf("uncut searches evaluated %d cells, cut ones %d", uncutCells, cells)
	}
}

// TestDifferential runs every leg on every variant of every shape. A variant
// that searches its partition (Algorithm 1 or exact) and fills no knapsack
// table on its uncut cold search fails as vacuous; even partitioning reads
// only p entries, so its rows log their count instead.
func TestDifferential(t *testing.T) {
	for _, shape := range shapes {
		for _, r := range shape.variants() {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				d, err := newDiff(t, r)
				if err != nil {
					t.Fatal(err)
				}
				if d.tables == 0 && r.part != PartitionEven {
					t.Fatal("vacuous row: the uncut cold search filled no knapsack table")
				}
				t.Logf("cold search filled %d knapsack tables uncut, %d cut", d.tables, d.ref.Search.KnapsackRuns)
				for _, leg := range legs {
					t.Run(leg.name, func(t *testing.T) {
						t.Parallel()
						leg.run(t, d)
					})
				}
			})
		}
	}
}

// FuzzReplanIncrementalVsFull drives the cold, store-warm and replan legs on
// a fuzzed memory-tight row. Replaying the seeds, at least three must fill
// knapsack tables.
func FuzzReplanIncrementalVsFull(f *testing.F) {
	seeds := [][7]uint8{
		{5, 3, 0, 0, 8, 0, 0}, // tiny6 p4 16k 0.93, adaptive
		{5, 3, 4, 1, 5, 2, 0}, // tiny6 p4 64k 0.90, exact
		{7, 5, 6, 0, 8, 0, 1}, // tiny8 p6, iso off
		{9, 5, 2, 0, 8, 1, 0}, // tiny10 p6, even
		{2, 6, 1, 0, 8, 0, 0}, // tiny3 p7: L = 8
		{2, 1, 2, 0, 8, 0, 0}, // tiny3 p2
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6] == 1)
	}
	calls, filled := 0, 0
	f.Fuzz(func(t *testing.T, dec8, pp8, n8, seq8, res8, part8 uint8, noIso bool) {
		calls++
		decoders := int(dec8%10) + 1
		pp := int(pp8)%(2*decoders+2) + 1
		r := row{
			name: "fuzz", model: model.Tiny(decoders), pp: pp, n: pp + int(n8%16),
			seq: []int{16384, 65536}[seq8%2], reserve: 0.85 + float64(res8%11)/100,
			part: []PartitionMode{PartitionAdaptive, PartitionEven, PartitionExact}[part8%3], noIso: noIso,
		}
		d, err := newDiff(t, r)
		if err != nil {
			return // infeasible: nothing to replan
		}
		if d.tables > 0 {
			filled++
		}
		for _, leg := range legs {
			if leg.name == "store-warm" || leg.name == "replan" {
				leg.run(t, d)
			}
		}
	})
	if calls == len(seeds) && filled < 3 {
		f.Errorf("%d of %d seeds fill knapsack tables, want >= 3", filled, len(seeds))
	}
}
