package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestAblationShape(t *testing.T) {
	rows, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationRow{}
	for _, r := range rows {
		by[r.Name] = r
	}
	// Granularity ladder: none OOMs; full > layer-level > unit-level.
	if !by["no recomputation (even)"].OOM {
		t.Error("no-recomputation should OOM at seq 16384")
	}
	full := by["full recomputation (even)"].ModeledTotal
	layer := by["layer-level recomputation (even)"].ModeledTotal
	unit := by["unit-level recomputation (even)"].ModeledTotal
	if !(full > layer && layer > unit) {
		t.Errorf("granularity ladder violated: full %g, layer %g, unit %g", full, layer, unit)
	}
	// Partitioning: Algorithm 1 improves on even; the exact DP never
	// loses to Algorithm 1.
	alg1 := by["AdaPipe (Algorithm 1)"].ModeledTotal
	exact := by["AdaPipe (exact Pareto DP)"].ModeledTotal
	if alg1 > unit+1e-9 {
		t.Errorf("Algorithm 1 %g worse than even partitioning %g", alg1, unit)
	}
	if exact > alg1+1e-9 {
		t.Errorf("exact DP %g worse than Algorithm 1 %g", exact, alg1)
	}
	// §5.3 engineering is lossless: identical results, different effort.
	isoOff := by["AdaPipe, isomorphism cache off"]
	if isoOff.ModeledTotal != alg1 {
		t.Errorf("isomorphism cache changed the result: %g vs %g", isoOff.ModeledTotal, alg1)
	}
	if isoOff.KnapsackRuns <= by["AdaPipe (Algorithm 1)"].KnapsackRuns {
		t.Error("disabling the isomorphism cache should multiply knapsack runs")
	}
	gcdOff := by["AdaPipe, GCD reduction off"]
	if gcdOff.ModeledTotal != alg1 {
		t.Errorf("GCD reduction changed the result: %g vs %g", gcdOff.ModeledTotal, alg1)
	}
	if out := FormatAblation(rows); !strings.Contains(out, "knapsacks") {
		t.Error("format output malformed")
	}
}

func TestInterleavedShape(t *testing.T) {
	rows, err := Interleaved()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BubbleRatio >= rows[i-1].BubbleRatio {
			t.Errorf("bubble ratio did not shrink with more chunks: %+v", rows)
		}
		if rows[i].IterTime >= rows[i-1].IterTime {
			t.Errorf("makespan did not shrink with more chunks: %+v", rows)
		}
	}
	if out := FormatInterleaved(rows); !strings.Contains(out, "v=4") {
		t.Error("format output malformed")
	}
}

func TestSequenceSweepShape(t *testing.T) {
	pts, err := SequenceSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	oomSeen := false
	for _, pt := range pts {
		if pt.Full == 0 || pt.AdaPipe == 0 {
			t.Fatalf("seq %d: full recomputation or AdaPipe OOM", pt.SeqLen)
		}
		// Granularity ordering wherever feasible.
		if pt.Layer > 0 && pt.Unit > pt.Layer+1e-9 {
			t.Errorf("seq %d: unit %g worse than layer %g", pt.SeqLen, pt.Unit, pt.Layer)
		}
		if pt.Layer > 0 && pt.Layer > pt.Full {
			t.Errorf("seq %d: layer-level %g worse than full %g", pt.SeqLen, pt.Layer, pt.Full)
		}
		if pt.AdaPipe > pt.Unit+1e-9 {
			t.Errorf("seq %d: AdaPipe %g worse than even partitioning %g", pt.SeqLen, pt.AdaPipe, pt.Unit)
		}
		// When memory is ample, adaptive saves everything and matches
		// no-recomputation.
		if pt.NoRecompute > 0 {
			if rel := pt.Unit/pt.NoRecompute - 1; rel > 0.01 || rel < -0.01 {
				t.Errorf("seq %d: adaptive %g should match no-recompute %g when memory is ample",
					pt.SeqLen, pt.Unit, pt.NoRecompute)
			}
		}
		// OOM is monotone in sequence length.
		if pt.NoRecompute == 0 {
			oomSeen = true
		} else if oomSeen {
			t.Errorf("seq %d: no-recompute feasible after an OOM at a shorter sequence", pt.SeqLen)
		}
		if pt.Speedup < 1.1 {
			t.Errorf("seq %d: speedup %.2f < 1.1", pt.SeqLen, pt.Speedup)
		}
	}
	if !oomSeen {
		t.Error("no-recomputation never OOMed across the sweep")
	}
	if out := FormatSweep(pts); !strings.Contains(out, "32768") {
		t.Error("format output malformed")
	}
}

func TestModelAccuracy(t *testing.T) {
	rows, err := ModelAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The simulator adds communication and ordering stalls: never
		// faster than the model, and within 10% of it (§5.1 accuracy).
		if r.Simulated < r.Modeled-1e-9 {
			t.Errorf("%s: simulation %g beats the model %g", r.Config, r.Simulated, r.Modeled)
		}
		if math.Abs(r.GapPct) > 10 {
			t.Errorf("%s: model off by %.2f%%", r.Config, r.GapPct)
		}
	}
	if out := FormatAccuracy(rows); !strings.Contains(out, "gap") {
		t.Error("format output malformed")
	}
}
