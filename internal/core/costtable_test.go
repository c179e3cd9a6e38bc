package core

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"adapipe/internal/coststore"
	"adapipe/internal/memory"
	"adapipe/internal/model"
	"adapipe/internal/partition"
	"adapipe/internal/recompute"
)

// referenceGroups converts a layer range into knapsack groups, one per
// (layer-kind, unit-kind) pair present in the range, by counting the range —
// what the planner did per solve before the group templates.
func referenceGroups(pl *Planner, layers []model.Layer) []recompute.Group {
	counts := map[model.LayerKind]int{}
	for _, l := range layers {
		counts[l.Kind]++
	}
	var groups []recompute.Group
	for _, kind := range []model.LayerKind{model.Embedding, model.Attention, model.FFN, model.Head} {
		c := counts[kind]
		if c == 0 {
			continue
		}
		for _, uc := range pl.prof.Layers[kind].Units {
			groups = append(groups, recompute.Group{
				Key:         kind.String() + "/" + uc.Unit.Kind.String(),
				FwdTime:     uc.FwdTime,
				Bytes:       uc.SavedBytes,
				Count:       c,
				AlwaysSaved: uc.Unit.AlwaysSaved,
			})
		}
	}
	recompute.SortGroups(groups)
	return groups
}

// referenceStageCost is the oracle the cost table is held to: the nominal
// cost of layers i..j at stage s derived from first principles — every sum
// walked over the actual layer range through the public memory, profile and
// recompute functions, no shape table, no templates, no caching.
func referenceStageCost(pl *Planner, s, i, j int) coststore.Entry {
	layers := pl.layers[i : j+1]
	static := memory.StageStatic(pl.cfg, pl.prof, pl.strat, layers, pl.opts.Memory)
	inFlight := memory.InFlight(pl.strat.PP, s)
	// stageMem is the stage's full breakdown with saved bytes pinned per
	// micro-batch in flight.
	stageMem := func(saved int64) memory.Breakdown {
		b := static
		b.SavedPerMicro, b.InFlight = saved, inFlight
		return b
	}
	var fwd, bwd float64
	for _, l := range layers {
		fwd += pl.prof.Layers[l.Kind].FwdTime
		bwd += pl.prof.Layers[l.Kind].BwdTime
	}
	capacity := pl.cluster.Device.MemCapacity
	var input int64
	if layers[0].Kind != model.Embedding {
		input = pl.prof.CommBytes
	}

	switch pl.opts.Recompute {
	case RecomputeFull:
		var extra float64
		sol := recompute.Solution{Feasible: true}
		for _, l := range layers {
			lc := pl.prof.Layers[l.Kind]
			switch l.Kind {
			case model.Attention, model.FFN:
				extra += lc.FwdTime
			default:
				sol.SavedUnits += len(lc.Units)
			}
			sol.TotalUnits += len(lc.Units)
		}
		sol.SavedBytes = memory.SavedBoundary(pl.prof, layers) + input
		br := stageMem(sol.SavedBytes)
		ok := pl.opts.IgnoreMemoryLimit || br.Total() <= capacity
		return coststore.Entry{Fwd: fwd, Bwd: bwd + extra, Sol: sol, Mem: br, OK: ok}

	case RecomputeNone:
		saved := memory.SavedAll(pl.prof, layers) + input
		sol := recompute.Solution{Feasible: true, SavedBytes: saved}
		for _, l := range layers {
			sol.SavedUnits += len(pl.prof.Layers[l.Kind].Units)
			sol.TotalUnits += len(pl.prof.Layers[l.Kind].Units)
		}
		br := stageMem(saved)
		ok := pl.opts.IgnoreMemoryLimit || br.Total() <= capacity
		return coststore.Entry{Fwd: fwd, Bwd: bwd, Sol: sol, Mem: br, OK: ok}

	default: // RecomputeAdaptive, RecomputeLayerLevel
		avail := pl.dpBudget() - static.Static()
		if avail < 0 || inFlight == 0 {
			return coststore.Entry{}
		}
		perMicro := avail/int64(inFlight) - input
		if perMicro < 0 {
			return coststore.Entry{}
		}
		groups := referenceGroups(pl, layers)
		if pl.opts.Recompute == RecomputeLayerLevel {
			groups = coarsenToLayers(groups)
		}
		sol := new(recompute.Solver).Optimize(groups, perMicro, recompute.Options{
			Quantum:    pl.quantumFor(perMicro),
			DisableGCD: pl.opts.DisableGCD,
		})
		var keys []string
		for _, g := range groups {
			keys = append(keys, g.Key)
		}
		if !sol.Feasible {
			return coststore.Entry{Sol: sol, Keys: keys}
		}
		sol.SavedBytes += input
		br := stageMem(sol.SavedBytes)
		extra := recompute.TotalOptionalTime(groups) - sol.SavedTime
		return coststore.Entry{Fwd: fwd, Bwd: bwd + extra, Sol: sol, Keys: keys, Mem: br, OK: true}
	}
}

// checkAgainstReference resolves (s, i, j) through the cost table and
// requires the result bit-equal to the oracle: forward/backward time,
// feasibility, memory breakdown and the full recomputation strategy.
func checkAgainstReference(t testing.TB, pl *Planner, s, i, j int) {
	t.Helper()
	idx, feasible, _ := pl.sv.lookup(nil, s, i, j)
	got, want := pl.table.cost(idx), referenceStageCost(pl, s, i, j)
	switch {
	case feasible != got.OK:
		t.Fatalf("(%d,%d,%d): lookup says feasible=%v, entry says %v", s, i, j, feasible, got.OK)
	case got.OK != want.OK:
		t.Fatalf("(%d,%d,%d): ok = %v, reference %v", s, i, j, got.OK, want.OK)
	case math.Float64bits(got.Fwd) != math.Float64bits(want.Fwd),
		math.Float64bits(got.Bwd) != math.Float64bits(want.Bwd):
		t.Fatalf("(%d,%d,%d): fwd/bwd = %x/%x, reference %x/%x", s, i, j,
			math.Float64bits(got.Fwd), math.Float64bits(got.Bwd),
			math.Float64bits(want.Fwd), math.Float64bits(want.Bwd))
	case got.Mem != want.Mem:
		t.Fatalf("(%d,%d,%d): Mem = %+v, reference %+v", s, i, j, got.Mem, want.Mem)
	case !reflect.DeepEqual(got.Sol, want.Sol), !reflect.DeepEqual(got.Keys, want.Keys):
		t.Fatalf("(%d,%d,%d): Recompute = %+v of %q, reference %+v of %q", s, i, j, got.Sol, got.Keys, want.Sol, want.Keys)
	}
}

var allRecomputeModes = []RecomputeMode{RecomputeAdaptive, RecomputeFull, RecomputeNone, RecomputeLayerLevel}

// TestCostTableMatchesReference holds the dense cost table — shape tables,
// group templates, static gate, publication — to the first-principles
// oracle: every (s, i, j) on the small configs, a strided sample on GPT-3
// and Llama-2, under all four recomputation modes with isomorphism on and
// off. Each range is checked twice so both the solve and the published-entry
// read are covered, and ranges of one class are visited from different
// starts, so a shape that silently depended on its representative would show.
func TestCostTableMatchesReference(t *testing.T) {
	cases := []row{
		{name: "tiny3_p2", model: model.Tiny(3), pp: 2, seq: 2048, stride: 1},
		{name: "tiny6_p4", model: model.Tiny(6), pp: 4, seq: 2048, stride: 1},
		{name: "gpt3_p8", model: model.GPT3_175B(), tp: 8, pp: 8, seq: 16384, stride: 17},
		{name: "llama2_p8", model: model.Llama2_70B(), tp: 8, pp: 8, seq: 16384, stride: 13},
	}
	for _, c := range cases {
		for _, mode := range allRecomputeModes {
			for _, noIso := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/noiso=%v", c.name, mode, noIso), func(t *testing.T) {
					t.Parallel()
					c := c
					c.rec, c.noIso, c.reserve = mode, noIso, 0.15
					pl := c.planner(t)
					L := pl.LayerCount()
					for pass := 0; pass < 2; pass++ {
						n := 0
						for s := 0; s < c.pp; s++ {
							for i := 0; i < L; i++ {
								for j := i; j < L; j++ {
									// The stride samples the big configs;
									// ranges ending at the head are always in.
									if n++; n%c.stride != 0 && j != L-1 {
										continue
									}
									checkAgainstReference(t, pl, s, i, j)
								}
							}
						}
					}
				})
			}
		}
	}
}

// FuzzCostTableVsReference drives the same bit-equality over fuzzed model
// depth, pipeline shape, sequence length, memory reserve, mode and range.
func FuzzCostTableVsReference(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(2048), uint8(15), uint8(0), false, uint8(0), uint16(0), uint16(3))
	f.Add(uint8(6), uint8(4), uint16(4096), uint8(60), uint8(3), true, uint8(2), uint16(1), uint16(9))
	f.Add(uint8(9), uint8(3), uint16(1024), uint8(90), uint8(1), false, uint8(1), uint16(4), uint16(19))
	f.Fuzz(func(t *testing.T, decoders, pp uint8, seq uint16, reservePct, mode uint8, noIso bool, s uint8, i, j uint16) {
		d := 1 + int(decoders)%12
		L := 2*d + 2
		p := 1 + int(pp)%4
		pl := row{model: model.Tiny(d), pp: p, seq: 256 + int(seq)%8192, reserve: float64(reservePct%100) / 100,
			rec: allRecomputeModes[int(mode)%len(allRecomputeModes)], noIso: noIso}.planner(t)
		lo, hi := int(i)%L, int(j)%L
		if lo > hi {
			lo, hi = hi, lo
		}
		// The fuzzed range, then every range of the same stage sharing its
		// start or its end: neighbours of one class must agree with the
		// oracle whichever of them is solved first.
		checkAgainstReference(t, pl, int(s)%p, lo, hi)
		for k := 0; k < L; k++ {
			if k <= hi {
				checkAgainstReference(t, pl, int(s)%p, k, hi)
			}
			if k >= lo {
				checkAgainstReference(t, pl, int(s)%p, lo, k)
			}
		}
	})
}

// scriptedSource is a pass-through CostSource whose at-th compute calls fire
// (nil panics) before computing.
type scriptedSource struct {
	calls atomic.Int32
	at    int32
	fire  func()
}

func (p *scriptedSource) GetOrCompute(_ coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition) {
	if p.calls.Add(1) == p.at {
		if p.fire == nil {
			panic("scripted source failure")
		}
		p.fire()
	}
	return compute(), coststore.Computed
}

// TestSolvePanicLeavesTableUsable checks that a class solve which panics
// part-way down its claim list leaves each claim published or absent: the
// claims already published stay, the rest are still absent, and each then
// resolves to the reference. (A search whose solve panics plans the
// reference bytes next time: the runner's panicked leg.)
func TestSolvePanicLeavesTableUsable(t *testing.T) {
	// A class solve with at least three claims: look one up on a scout
	// planner and read back which stages it published.
	// (Six stages: only stages 1..p−2 can share a decoder-only class.)
	tight := row{name: "tiny8_p6", model: model.Tiny(8), pp: 6, seq: 16384, reserve: 0.93, stride: 1}
	var stages []int
	var ci, cj int
	for _, r := range tight.ranges(2*8 + 2) {
		scout := tight.planner(t)
		if !scout.table.reachable(1, r[0], r[1]) {
			continue
		}
		scout.sv.lookup(nil, 1, r[0], r[1])
		stages = []int{1}
		for s := 0; s < tight.pp; s++ {
			if s != 1 && scout.table.hot[scout.table.index(s, r[0], r[1])].State != partition.Absent {
				stages = append(stages, s)
			}
		}
		if ci, cj = r[0], r[1]; len(stages) >= 3 {
			break
		}
	}
	if len(stages) < 3 {
		t.Fatalf("no class of %s has three same-quantum stages", tight.name)
	}

	// The second claim's compute panics: the first stays published, the
	// second and every later one stay absent.
	pl := tight.planner(t)
	if err := pl.SetCostSource(&scriptedSource{at: 2}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scripted panic did not propagate out of the lookup")
			}
		}()
		pl.sv.lookup(nil, stages[0], ci, cj)
	}()
	for k, s := range stages {
		if published := pl.table.hot[pl.table.index(s, ci, cj)].State != partition.Absent; published != (k == 0) {
			t.Fatalf("after a panic in claim 1 of stages %v: stage %d published = %v, want only the first", stages, s, published)
		}
	}
	for _, s := range stages {
		checkAgainstReference(t, pl, s, ci, cj)
	}
}
