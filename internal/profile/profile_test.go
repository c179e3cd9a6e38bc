package profile

import (
	"maps"
	"math"
	"testing"
	"testing/quick"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

func mustProfile(t *testing.T, cfg model.Config, strat parallel.Strategy, seq int) *Profile {
	t.Helper()
	p, err := NewWithComm(cfg, hardware.A100(), strat, seq, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNewWithCommAllocs pins the objects one profile costs: the Profile, its
// layer map and each layer kind's unit list and unit costs (20 before the
// unit costs were presized).
func TestNewWithCommAllocs(t *testing.T) {
	cfg := model.Llama2_70B()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096, 1, 3e11); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 13 {
		t.Errorf("NewWithComm allocates %.0f objects, want <= 13", allocs)
	}
}

func TestAllCostsPositive(t *testing.T) {
	for _, cfg := range []model.Config{model.GPT3_175B(), model.Llama2_70B(), model.Tiny(4)} {
		p := mustProfile(t, cfg, parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096)
		for kind, lc := range p.Layers {
			if lc.FwdTime <= 0 || lc.BwdTime <= 0 {
				t.Errorf("%s %v: non-positive times %g/%g", cfg.Name, kind, lc.FwdTime, lc.BwdTime)
			}
			if lc.SavedBytesAll <= 0 || lc.BoundaryBytes <= 0 {
				t.Errorf("%s %v: non-positive memory", cfg.Name, kind)
			}
			for _, uc := range lc.Units {
				if uc.FwdTime <= 0 || uc.BwdTime <= 0 || uc.SavedBytes <= 0 {
					t.Errorf("%s %v/%v: non-positive cost", cfg.Name, kind, uc.Unit.Kind)
				}
			}
		}
	}
}

func TestBackwardAtLeastForward(t *testing.T) {
	p := mustProfile(t, model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 8192)
	for kind, lc := range p.Layers {
		if lc.BwdTime < lc.FwdTime {
			t.Errorf("%v: backward %g < forward %g", kind, lc.BwdTime, lc.FwdTime)
		}
	}
}

func TestSavedBytesMinBelowAll(t *testing.T) {
	p := mustProfile(t, model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096)
	for _, kind := range []model.LayerKind{model.Attention, model.FFN} {
		lc := p.Layers[kind]
		if lc.SavedBytesMin >= lc.SavedBytesAll {
			t.Errorf("%v: min saved %d >= all saved %d", kind, lc.SavedBytesMin, lc.SavedBytesAll)
		}
		if lc.SavedBytesMin <= 0 {
			t.Errorf("%v: no always-saved units", kind)
		}
	}
}

func TestAttentionScalesQuadratically(t *testing.T) {
	strat := parallel.Strategy{TP: 8, PP: 8, DP: 1}
	short := mustProfile(t, model.GPT3_175B(), strat, 4096)
	long := mustProfile(t, model.GPT3_175B(), strat, 8192)
	coreTime := func(p *Profile) float64 {
		for _, uc := range p.Layers[model.Attention].Units {
			if uc.Unit.Kind == model.UnitCoreAttention {
				return uc.FwdTime
			}
		}
		t.Fatal("no core attention unit")
		return 0
	}
	ratio := coreTime(long) / coreTime(short)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("core attention time ratio for 2x sequence = %g, want ~4 (quadratic)", ratio)
	}
	// GEMM units scale linearly.
	gemm := func(p *Profile) float64 {
		for _, uc := range p.Layers[model.Attention].Units {
			if uc.Unit.Kind == model.UnitQProj {
				return uc.FwdTime
			}
		}
		return 0
	}
	ratio = gemm(long) / gemm(short)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("QProj time ratio for 2x sequence = %g, want ~2 (linear)", ratio)
	}
}

func TestTensorParallelShardsMemory(t *testing.T) {
	cfg := model.GPT3_175B()
	t4 := mustProfile(t, cfg, parallel.Strategy{TP: 4, PP: 8, DP: 1}, 4096)
	t8 := mustProfile(t, cfg, parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096)
	if t8.Layers[model.Attention].SavedBytesAll*2 != t4.Layers[model.Attention].SavedBytesAll {
		t.Errorf("doubling TP should halve attention activation bytes: t4=%d t8=%d",
			t4.Layers[model.Attention].SavedBytesAll, t8.Layers[model.Attention].SavedBytesAll)
	}
	if t8.CommBytes*2 != t4.CommBytes {
		t.Errorf("doubling TP should halve boundary bytes: t4=%d t8=%d", t4.CommBytes, t8.CommBytes)
	}
}

func TestGQAShrinksKVProjections(t *testing.T) {
	p := mustProfile(t, model.Llama2_70B(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096)
	var q, k int64
	for _, uc := range p.Layers[model.Attention].Units {
		switch uc.Unit.Kind {
		case model.UnitQProj:
			q = uc.SavedBytes
		case model.UnitKProj:
			k = uc.SavedBytes
		}
	}
	if k*8 != q {
		t.Errorf("Llama 2 GQA: K bytes %d, Q bytes %d, want 1:8 ratio", k, q)
	}
}

func TestCommTime(t *testing.T) {
	p := mustProfile(t, model.GPT3_175B(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096)
	if got := p.CommTime(0, 1e-6); got != 0 {
		t.Errorf("zero-bandwidth comm time = %g, want 0", got)
	}
	ct := p.CommTime(100e9, 5e-6)
	if ct <= 5e-6 {
		t.Errorf("comm time %g should exceed the latency", ct)
	}
	want := 5e-6 + float64(p.CommBytes)/100e9
	if ct != want {
		t.Errorf("comm time = %g, want %g", ct, want)
	}
}

func TestTPCommunicationCost(t *testing.T) {
	cfg := model.GPT3_175B()
	noComm, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	withComm, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 8, PP: 8, DP: 1}, 4096, 1, 300e9)
	if err != nil {
		t.Fatal(err)
	}
	if withComm.Layers[model.Attention].FwdTime <= noComm.Layers[model.Attention].FwdTime {
		t.Error("TP collectives should add forward time")
	}
	// TP=1 pays no collective cost even with bandwidth configured.
	tp1, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 1, PP: 8, DP: 8}, 4096, 1, 300e9)
	if err != nil {
		t.Fatal(err)
	}
	tp1Plain, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 1, PP: 8, DP: 8}, 4096, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp1.Layers[model.FFN].FwdTime != tp1Plain.Layers[model.FFN].FwdTime {
		t.Error("TP=1 should pay no collective cost")
	}
}

// TestRangeTimes: over the whole layer sequence, the summed backward time
// exceeds the summed forward time, which is positive.
func TestRangeTimes(t *testing.T) {
	p := mustProfile(t, model.Tiny(4), parallel.Strategy{TP: 1, PP: 2, DP: 1}, 1024)
	var fwd, bwd float64
	for _, l := range model.Tiny(4).LayerSequence() {
		fwd += p.Layers[l.Kind].FwdTime
		bwd += p.Layers[l.Kind].BwdTime
	}
	if !(fwd > 0 && bwd > fwd) {
		t.Errorf("range forward %g, backward %g; want 0 < forward < backward", fwd, bwd)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := model.Tiny(2)
	if _, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 1, PP: 1, DP: 1}, 0, 1, 0); err == nil {
		t.Error("zero sequence accepted")
	}
	if _, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 1, PP: 1, DP: 1}, 128, 0, 0); err == nil {
		t.Error("zero micro-batch accepted")
	}
	if _, err := NewWithComm(cfg, hardware.A100(), parallel.Strategy{TP: 0, PP: 1, DP: 1}, 128, 1, 0); err == nil {
		t.Error("invalid strategy accepted")
	}
	bad := cfg
	bad.Hidden = 0
	if _, err := NewWithComm(bad, hardware.A100(), parallel.Strategy{TP: 1, PP: 1, DP: 1}, 128, 1, 0); err == nil {
		t.Error("invalid model accepted")
	}
	dev := hardware.A100()
	dev.PeakFLOPS = 0
	if _, err := NewWithComm(cfg, dev, parallel.Strategy{TP: 1, PP: 1, DP: 1}, 128, 1, 0); err == nil {
		t.Error("invalid device accepted")
	}
}

// Property: sequence length scaling never reduces any cost, over a grid of
// random sequence lengths and TP sizes.
func TestMonotoneInSequenceLength(t *testing.T) {
	cfg := model.Tiny(2)
	f := func(a, b uint8, tpSel uint8) bool {
		s1 := 64 * (1 + int(a%16))
		s2 := 64 * (1 + int(b%16))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		tp := 1 << (tpSel % 3)
		strat := parallel.Strategy{TP: tp, PP: 2, DP: 1}
		p1, err1 := NewWithComm(cfg, hardware.A100(), strat, s1, 1, 0)
		p2, err2 := NewWithComm(cfg, hardware.A100(), strat, s2, 1, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, kind := range []model.LayerKind{model.Attention, model.FFN} {
			if p2.Layers[kind].FwdTime < p1.Layers[kind].FwdTime {
				return false
			}
			if p2.Layers[kind].SavedBytesAll < p1.Layers[kind].SavedBytesAll {
				return false
			}
		}
		return p2.CommBytes >= p1.CommBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromMeasurementsRoundTrip(t *testing.T) {
	cfg := model.Tiny(2)
	strat := parallel.Strategy{TP: 1, PP: 2, DP: 1}
	analytic := mustProfile(t, cfg, strat, 1024)
	measured, err := FromMeasurements(cfg, strat, 1024, 1, analytic.Measurements(), analytic.CommBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []model.LayerKind{model.Embedding, model.Attention, model.FFN, model.Head} {
		a, m := analytic.Layers[kind], measured.Layers[kind]
		if a.FwdTime != m.FwdTime || a.BwdTime != m.BwdTime {
			t.Errorf("%v: times not round-tripped", kind)
		}
		if a.SavedBytesAll != m.SavedBytesAll || a.SavedBytesMin != m.SavedBytesMin {
			t.Errorf("%v: memory not round-tripped", kind)
		}
	}
}

func TestFromMeasurementsValidation(t *testing.T) {
	cfg := model.Tiny(2)
	strat := parallel.Strategy{TP: 1, PP: 2, DP: 1}
	analytic := mustProfile(t, cfg, strat, 1024)
	full := analytic.Measurements()

	// Missing unit.
	partial := maps.Clone(full)
	delete(partial, MeasurementKey{Layer: model.Attention, Unit: model.UnitQProj})
	if _, err := FromMeasurements(cfg, strat, 1024, 1, partial, analytic.CommBytes); err == nil {
		t.Error("missing measurement accepted")
	}
	// A time that is not positive and finite. NaN fails every comparison,
	// so a `<= 0` check alone lets it through.
	for _, tc := range []struct {
		name string
		set  func(*Measurement)
	}{
		{"zero forward time", func(m *Measurement) { m.FwdSeconds = 0 }},
		{"NaN forward time", func(m *Measurement) { m.FwdSeconds = math.NaN() }},
		{"+Inf forward time", func(m *Measurement) { m.FwdSeconds = math.Inf(1) }},
		{"negative backward time", func(m *Measurement) { m.BwdSeconds = -1 }},
		{"NaN backward time", func(m *Measurement) { m.BwdSeconds = math.NaN() }},
		{"+Inf backward time", func(m *Measurement) { m.BwdSeconds = math.Inf(1) }},
	} {
		bad := maps.Clone(full)
		k := MeasurementKey{Layer: model.FFN, Unit: model.UnitFFNUp}
		m := bad[k]
		tc.set(&m)
		bad[k] = m
		if _, err := FromMeasurements(cfg, strat, 1024, 1, bad, analytic.CommBytes); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := FromMeasurements(cfg, strat, 1024, 1, full, 0); err == nil {
		t.Error("zero boundary bytes accepted")
	}
	if _, err := FromMeasurements(cfg, strat, 0, 1, full, 1); err == nil {
		t.Error("zero sequence accepted")
	}
}
