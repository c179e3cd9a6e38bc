package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adapipe/internal/core"
	"adapipe/internal/model"
	"adapipe/internal/train"
)

func TestFigure1Shape(t *testing.T) {
	series, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("got %d series, want 6 (3 seq lengths x 2 strategies)", len(series))
	}
	byKey := map[string]Figure1Series{}
	for _, s := range series {
		byKey[s.Recompute+"@"+itoa(s.SeqLen)] = s
		if len(s.StageGiB) != 8 {
			t.Fatalf("series %s@%d has %d stages", s.Recompute, s.SeqLen, len(s.StageGiB))
		}
	}
	// No-recomputation memory decreases with the stage id (the uneven
	// tail stages carry an extra layer, so allow a small rise there).
	for _, seq := range []int{4096, 8192, 16384} {
		non := byKey["none@"+itoa(seq)]
		for st := 1; st < 7; st++ {
			if non.StageGiB[st] > non.StageGiB[st-1]+1.0 {
				t.Errorf("seq %d: no-recompute memory rose at stage %d: %v", seq, st, non.StageGiB)
			}
		}
		if non.StageGiB[7] >= non.StageGiB[0] {
			t.Errorf("seq %d: last stage %g not below first %g", seq, non.StageGiB[7], non.StageGiB[0])
		}
		full := byKey["full@"+itoa(seq)]
		for st := range full.StageGiB {
			if full.StageGiB[st] > full.LimitGiB {
				t.Errorf("seq %d: full recompute exceeds the limit at stage %d", seq, st)
			}
			if full.StageGiB[st] >= non.StageGiB[st] {
				t.Errorf("seq %d stage %d: full %g >= none %g", seq, st, full.StageGiB[st], non.StageGiB[st])
			}
		}
	}
	// The motivating overflow: early stages exceed 80 GiB at seq 16384.
	long := byKey["none@16384"]
	if long.StageGiB[0] <= long.LimitGiB {
		t.Errorf("stage 0 at seq 16384 without recomputation = %g GiB, want > %g", long.StageGiB[0], long.LimitGiB)
	}
	// Memory grows with sequence length at every stage.
	for st := 0; st < 8; st++ {
		if byKey["none@8192"].StageGiB[st] <= byKey["none@4096"].StageGiB[st] {
			t.Errorf("stage %d: memory did not grow from 4096 to 8192", st)
		}
	}
	if out := FormatFigure1(series); !strings.Contains(out, "Figure 1") {
		t.Error("format output malformed")
	}
}

func itoa(v int) string {
	switch v {
	case 4096:
		return "4096"
	case 8192:
		return "8192"
	case 16384:
		return "16384"
	}
	return "?"
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	gpipe, ofob := res[0], res[1]
	if gpipe.Name != "GPipe" || ofob.Name != "1F1B" {
		t.Fatalf("unexpected order: %s, %s", gpipe.Name, ofob.Name)
	}
	// §2.1: same bubble count, very different live memory.
	if gpipe.IterTime != ofob.IterTime {
		t.Errorf("makespans differ: %g vs %g", gpipe.IterTime, ofob.IterTime)
	}
	for st, live := range gpipe.PeakMicros {
		if live != 6 {
			t.Errorf("GPipe stage %d holds %d micros, want all 6", st, live)
		}
	}
	for st, live := range ofob.PeakMicros {
		if want := int64(3 - st); live != want {
			t.Errorf("1F1B stage %d holds %d micros, want p-s = %d", st, live, want)
		}
	}
	if !strings.Contains(gpipe.Gantt, "dev  0") {
		t.Error("gantt missing")
	}
}

func TestFigure3Shape(t *testing.T) {
	steps, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("got %d steps", len(steps))
	}
	// Each optimization helps (or at least does not hurt).
	if steps[1].IterTime >= steps[0].IterTime {
		t.Errorf("adaptive recomputation did not help: %g -> %g", steps[0].IterTime, steps[1].IterTime)
	}
	if steps[2].IterTime > steps[1].IterTime+1e-12 {
		t.Errorf("adaptive partitioning regressed: %g -> %g", steps[1].IterTime, steps[2].IterTime)
	}
	// Opt 1 saves far more units than full recomputation, later stages more
	// than earlier ones.
	s1 := steps[1].SavedUnits
	if s1[0] <= steps[0].SavedUnits[0] {
		t.Error("adaptive recomputation saved nothing extra")
	}
	if s1[len(s1)-1] <= s1[0] {
		t.Errorf("later stages should save more: %v", s1)
	}
	// Opt 2 changes the partitioning.
	changed := false
	for i := range steps[1].Layers {
		if steps[2].Layers[i] != steps[1].Layers[i] {
			changed = true
		}
	}
	if !changed {
		t.Errorf("adaptive partitioning left the layer split unchanged: %v", steps[2].Layers)
	}
	if out := FormatFigure3(steps); !strings.Contains(out, "Opt. 2") {
		t.Error("format output malformed")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.SavedUnits) != 8 || len(r.Layers) != 8 {
			t.Fatalf("%s: bad lengths", r.Method)
		}
		// §7.4: saved units grow from first to last stage.
		if r.SavedUnits[7] <= r.SavedUnits[0] {
			t.Errorf("%s: saved units %v do not grow", r.Method, r.SavedUnits)
		}
		total := 0
		for _, l := range r.Layers {
			total += l
		}
		if total != 194 { // 2*96 + embedding + head
			t.Errorf("%s: %d layers total, want 194", r.Method, total)
		}
	}
	var ada, even Table4Row
	for _, r := range rows {
		if r.Method == "AdaPipe" {
			ada = r
		} else {
			even = r
		}
	}
	// Even partitioning's layer counts differ by at most one.
	min, max := even.Layers[0], even.Layers[0]
	for _, l := range even.Layers {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Errorf("even partitioning layers %v not uniform", even.Layers)
	}
	// AdaPipe gives the last stages at least as many layers as the first.
	if ada.Layers[7] < ada.Layers[0] {
		t.Errorf("AdaPipe layers %v do not shift to later stages", ada.Layers)
	}
	if out := FormatTable4(rows); !strings.Contains(out, "AdaPipe") {
		t.Error("format output malformed")
	}
}

func TestFigure10Exactness(t *testing.T) {
	fc := DefaultFigure10Config()
	fc.Steps = 60 // keep the test quick; the full 200 runs in the benchmark
	curves, err := Figure10(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	if gap := MaxCurveGap(curves[0], curves[1]); gap != 0 {
		t.Errorf("loss curves diverge by %g; recomputation must be exact", gap)
	}
	// The loss must actually descend (the corpus is learnable).
	l := curves[0].Losses
	first, last := avg(l[:10]), avg(l[len(l)-10:])
	if last >= first {
		t.Errorf("loss did not descend: %.4f -> %.4f", first, last)
	}
	if out := FormatFigure10(curves); !strings.Contains(out, "max |Δloss|") {
		t.Error("format output malformed")
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestStageSavesRoundTrip: counting the executor's save sets back per
// (layer kind, unit kind) gives each stage what the plan prices it as saving,
// under every recompute mode, for a gated and an ungated figure 10 net.
// Adaptive plans save their searched units (and their stages save
// differently), layer-level plans that many whole layers of each kind, full
// recomputation the head alone and no recomputation everything — so a
// no-recomputation plan runs at the save-all peak.
func TestStageSavesRoundTrip(t *testing.T) {
	modes := []core.RecomputeMode{core.RecomputeAdaptive, core.RecomputeFull, core.RecomputeNone, core.RecomputeLayerLevel}
	for _, gated := range []bool{false, true} {
		for _, mode := range modes {
			fc := DefaultFigure10Config()
			fc.GatedFFN = gated
			name := fmt.Sprintf("gated=%v %s", gated, mode)
			plan, err := figure10Plan(fc, mode)
			if err != nil {
				t.Fatal(err)
			}
			m := fc.Model()
			seq := m.LayerSequence()
			saves, err := train.StageSaves(m, plan.Bounds(), plan.SavedCount)
			if err != nil {
				t.Fatal(err)
			}
			sets := map[string]bool{}
			for s, st := range plan.Stages {
				got, want := map[string]int{}, map[string]int{}
				b := 0
				for _, l := range seq[st.LayerLo:st.LayerHi] {
					optional := false
					for _, u := range m.Units(l.Kind) {
						if u.AlwaysSaved {
							continue
						}
						optional = true
						key := l.Kind.String() + "/" + u.Kind.String()
						if saves[s][b].Has(u.Kind) {
							got[key]++
						}
						// Does the plan price this layer as keeping u? (The
						// first layers of the kind take a unit's count here,
						// StageSaves the last: the copies are isomorphic.)
						var saved bool
						switch mode {
						case core.RecomputeAdaptive:
							saved = want[key] < st.Saved[key]
						case core.RecomputeLayerLevel:
							saved = want[key] < st.Saved[l.Kind.String()+"/whole-layer"]
						case core.RecomputeFull:
							saved = l.Kind == model.Head
						case core.RecomputeNone:
							saved = true
						}
						if saved {
							want[key]++
						}
					}
					if optional {
						b++
					}
				}
				if b != len(saves[s]) {
					t.Errorf("%s stage %d: %d save sets for %d layers with optional units", name, s, len(saves[s]), b)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s stage %d: executor saves %v, plan %v", name, s, got, want)
				}
				sets[fmt.Sprint(want)] = true
			}
			if mode == core.RecomputeAdaptive && len(sets) < 2 {
				t.Errorf("%s: every stage saves %v; the round trip is vacuous", name, plan.Stages[0].Saved)
			}
			if mode != core.RecomputeNone {
				continue
			}
			peak := func(saves [][]train.SaveSpec) []int64 {
				res, err := train.Run(train.RunConfig{
					Net: fc.Config, Bounds: plan.Bounds(), Saves: saves,
					Steps: 1, MicroBatches: fc.MicroBatches, LR: fc.LR, DataSeed: fc.Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.PeakActBytes
			}
			if got, all := peak(saves), peak(nil); !reflect.DeepEqual(got, all) {
				t.Errorf("%s: peak %v B, saving everything %v B", name, got, all)
			}
		}
	}
}

func TestFigure10GatedEngine(t *testing.T) {
	// The plan→engine mapping also round-trips through SwiGLU blocks.
	fc := DefaultFigure10Config()
	fc.GatedFFN = true
	fc.Steps = 25
	curves, err := Figure10(fc)
	if err != nil {
		t.Fatal(err)
	}
	if gap := MaxCurveGap(curves[0], curves[1]); gap != 0 {
		t.Errorf("gated curves diverge by %g", gap)
	}
}
