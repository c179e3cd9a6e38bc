package model

import (
	"strings"
	"testing"
)

// paramCount returns the total parameter count of the model.
func paramCount(c Config) int64 {
	var n int64
	for _, l := range c.LayerSequence() {
		n += c.LayerParams(l.Kind)
	}
	return n
}

// bertLarge returns the BERT-Large configuration. §4.1 notes the Figure 4
// computation-unit division adapts to BERT-style encoders; the planner
// treats it identically (the causal/bidirectional distinction does not
// change unit structure, sizes or FLOPs at this granularity).
func bertLarge() Config {
	return Config{
		Name:          "BERT-Large",
		DecoderLayers: 24,
		Hidden:        1024,
		Heads:         16,
		KVHeads:       16,
		FFNHidden:     4096,
		Vocab:         30522,
		BytesPerValue: 2,
	}
}

func TestGPT3ParamCount(t *testing.T) {
	cfg := GPT3_175B()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := paramCount(cfg)
	// GPT-3 has ~175 billion parameters.
	if n < 174e9 || n > 177e9 {
		t.Fatalf("GPT-3 param count = %d, want ~175e9", n)
	}
}

func TestLlama2ParamCount(t *testing.T) {
	cfg := Llama2_70B()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := paramCount(cfg)
	if n < 68e9 || n > 71e9 {
		t.Fatalf("Llama 2 param count = %d, want ~70e9", n)
	}
}

// TestParamCountIsSumOfLayers: the layer sequence holds the embedding, each
// decoder's attention and FFN layers, and the head, once each.
func TestParamCountIsSumOfLayers(t *testing.T) {
	for _, cfg := range []Config{GPT3_175B(), Llama2_70B(), Tiny(3)} {
		decoder := cfg.LayerParams(Attention) + cfg.LayerParams(FFN)
		sum := cfg.LayerParams(Embedding) + int64(cfg.DecoderLayers)*decoder + cfg.LayerParams(Head)
		if n := paramCount(cfg); n != sum {
			t.Errorf("%s: sequence sum %d != per-kind sum %d", cfg.Name, n, sum)
		}
	}
}

func TestLayerSequenceStructure(t *testing.T) {
	cfg := Tiny(5)
	seq := cfg.LayerSequence()
	if len(seq) != 2*5+2 {
		t.Fatalf("sequence length = %d, want %d", len(seq), 2*5+2)
	}
	if seq[0].Kind != Embedding {
		t.Errorf("first layer = %v, want Embedding", seq[0].Kind)
	}
	if seq[len(seq)-1].Kind != Head {
		t.Errorf("last layer = %v, want Head", seq[len(seq)-1].Kind)
	}
	for i := 1; i < len(seq)-1; i++ {
		want := Attention
		if i%2 == 0 {
			want = FFN
		}
		if seq[i].Kind != want {
			t.Errorf("layer %d = %v, want %v", i, seq[i].Kind, want)
		}
		if seq[i].Index != i {
			t.Errorf("layer %d has Index %d", i, seq[i].Index)
		}
	}
}

func TestAttentionUnits(t *testing.T) {
	cfg := GPT3_175B()
	units := cfg.Units(Attention)
	kinds := []UnitKind{UnitLayerNorm, UnitQProj, UnitKProj, UnitVProj, UnitCoreAttention, UnitOutProj}
	if len(units) != len(kinds) {
		t.Fatalf("attention has %d units, want %d", len(units), len(kinds))
	}
	for i, u := range units {
		if u.Kind != kinds[i] {
			t.Errorf("unit %d = %v, want %v", i, u.Kind, kinds[i])
		}
		if u.Layer != Attention {
			t.Errorf("unit %d layer = %v", i, u.Layer)
		}
	}
	// Only the output projection is always saved (§4.2).
	for _, u := range units {
		want := u.Kind == UnitOutProj
		if u.AlwaysSaved != want {
			t.Errorf("unit %v AlwaysSaved = %v, want %v", u.Kind, u.AlwaysSaved, want)
		}
	}
}

func TestFFNUnitsGated(t *testing.T) {
	plain := GPT3_175B().Units(FFN)
	gated := Llama2_70B().Units(FFN)
	if len(gated) != len(plain)+1 {
		t.Fatalf("gated FFN has %d units, plain has %d; want exactly one more", len(gated), len(plain))
	}
	found := false
	for _, u := range gated {
		if u.Kind == UnitFFNGate {
			found = true
		}
	}
	if !found {
		t.Error("gated FFN missing UnitFFNGate")
	}
	for _, u := range gated {
		want := u.Kind == UnitFFNDown
		if u.AlwaysSaved != want {
			t.Errorf("unit %v AlwaysSaved = %v, want %v", u.Kind, u.AlwaysSaved, want)
		}
	}
}

func TestEmbeddingAndHeadUnits(t *testing.T) {
	cfg := Tiny(2)
	emb := cfg.Units(Embedding)
	if len(emb) != 1 || emb[0].Kind != UnitEmbedLookup || !emb[0].AlwaysSaved {
		t.Errorf("embedding units = %+v", emb)
	}
	head := cfg.Units(Head)
	if len(head) != 2 || head[0].Kind != UnitHeadNorm || head[1].Kind != UnitHeadProj {
		t.Errorf("head units = %+v", head)
	}
	if !head[1].AlwaysSaved {
		t.Error("head projection must be always saved")
	}
}

func TestKVWidthGQA(t *testing.T) {
	cfg := Llama2_70B()
	if got := cfg.KVWidth(); got != 1024 {
		t.Errorf("Llama 2 KV width = %d, want 1024 (8 KV heads x 128)", got)
	}
	if got := cfg.HeadDim(); got != 128 {
		t.Errorf("Llama 2 head dim = %d, want 128", got)
	}
	mha := GPT3_175B()
	if mha.KVWidth() != mha.Hidden {
		t.Errorf("MHA KV width = %d, want Hidden %d", mha.KVWidth(), mha.Hidden)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Tiny(2)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero layers", func(c *Config) { c.DecoderLayers = 0 }},
		{"zero hidden", func(c *Config) { c.Hidden = 0 }},
		{"zero vocab", func(c *Config) { c.Vocab = 0 }},
		{"zero heads", func(c *Config) { c.Heads = 0 }},
		{"kv heads exceed heads", func(c *Config) { c.KVHeads = c.Heads * 2 }},
		{"heads not multiple of kv", func(c *Config) { c.Heads = 6; c.KVHeads = 4 }},
		{"hidden not divisible by heads", func(c *Config) { c.Hidden = 510 }},
		{"zero bytes per value", func(c *Config) { c.BytesPerValue = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []LayerKind{Embedding, Attention, FFN, Head} {
		if s := k.String(); s == "" || strings.HasPrefix(s, "LayerKind") {
			t.Errorf("LayerKind %d has bad String %q", int(k), s)
		}
	}
	if s := LayerKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown layer kind String = %q", s)
	}
	for k := UnitLayerNorm; k <= UnitHeadProj; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "UnitKind") {
			t.Errorf("UnitKind %d has bad String %q", int(k), s)
		}
	}
	if s := UnitKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown unit kind String = %q", s)
	}
}

func TestUnitsUnknownKind(t *testing.T) {
	if u := Tiny(1).Units(LayerKind(42)); u != nil {
		t.Errorf("unknown layer kind returned units %v", u)
	}
	if n := Tiny(1).LayerParams(LayerKind(42)); n != 0 {
		t.Errorf("unknown layer kind has %d params", n)
	}
}

func TestGatedFFNParamCount(t *testing.T) {
	cfg := Tiny(1)
	plain := cfg.LayerParams(FFN)
	cfg.GatedFFN = true
	gated := cfg.LayerParams(FFN)
	if gated-plain != int64(cfg.Hidden)*int64(cfg.FFNHidden) {
		t.Errorf("gate projection adds %d params, want %d", gated-plain, int64(cfg.Hidden)*int64(cfg.FFNHidden))
	}
}

func TestBERTLarge(t *testing.T) {
	cfg := bertLarge()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := paramCount(cfg)
	// BERT-Large is ~340M parameters (ours counts an untied LM head).
	if n < 300e6 || n > 420e6 {
		t.Errorf("BERT-Large param count = %d, want ~340e6", n)
	}
	// Same unit structure as GPT-style decoders (§4.1).
	if len(cfg.Units(Attention)) != len(GPT3_175B().Units(Attention)) {
		t.Error("BERT attention unit division differs from GPT")
	}
}

// TestEveryUnitIsDeclared: each unit kind keeps at least one tensor and does
// some forward work, and reading its declaration allocates nothing.
func TestEveryUnitIsDeclared(t *testing.T) {
	for _, gated := range []bool{false, true} {
		c := Llama2_70B()
		c.GatedFFN = gated
		for k := UnitLayerNorm; k <= UnitHeadProj; k++ {
			if n := c.SavedBytes(k, 1, 4096, 8); n <= 0 {
				t.Errorf("gated=%v %v: %d saved bytes", gated, k, n)
			}
			if _, n := c.ForwardWork(k, 1, 4096); n <= 0 {
				t.Errorf("gated=%v %v: %d forward work", gated, k, n)
			}
			if a := testing.AllocsPerRun(10, func() { c.SavedBytes(k, 1, 4096, 8); c.ForwardWork(k, 1, 4096) }); a != 0 {
				t.Errorf("%v: a declaration lookup allocates %.0f objects", k, a)
			}
		}
	}
}

// TestDeclaredShapes spells out a few declarations at GPT-3's shape: what a
// unit keeps (each tensor split over tp ranks), its forward work, and the
// hidden-state tensor a stage boundary carries.
func TestDeclaredShapes(t *testing.T) {
	c := GPT3_175B()
	const b, s, tp = 2, 4096, 8
	h, f, v := int64(12288), int64(4*12288), int64(50257)
	saved := []struct {
		k    UnitKind
		want int64
	}{
		{UnitLayerNorm, b * s * h * 2 / tp},
		{UnitCoreAttention, b*s*h*2/tp + b*s*96*4/tp},
		{UnitFFNAct, b * s * f * 2 / tp},
		{UnitHeadProj, b * s * v * 2 / tp},
	}
	for _, r := range saved {
		if got := c.SavedBytes(r.k, b, s, tp); got != r.want {
			t.Errorf("%v keeps %d B, want %d", r.k, got, r.want)
		}
	}
	work := []struct {
		k    UnitKind
		kind Work
		want int64
	}{
		{UnitQProj, WorkGEMM, b * s * h * h},
		{UnitCoreAttention, WorkAttention, b * s * s * h},
		{UnitFFNDown, WorkGEMM, b * s * f * h},
		{UnitLayerNorm, WorkMemory, 3 * b * s * h * 2},
		{UnitFFNAct, WorkMemory, 2 * b * s * f * 2},
	}
	for _, r := range work {
		if kind, got := c.ForwardWork(r.k, b, s); kind != r.kind || got != r.want {
			t.Errorf("%v does %d of work kind %d, want %d of kind %d", r.k, got, kind, r.want, r.kind)
		}
	}
	if got := c.HiddenBytes(b, s, tp); got != b*s*h*2/tp {
		t.Errorf("a hidden-state shard is %d B, want %d", got, b*s*h*2/tp)
	}
	c.GatedFFN = true
	if _, got := c.ForwardWork(UnitFFNAct, b, s); got != 3*b*s*f*2 {
		t.Errorf("the gated activation moves %d B, want %d", got, 3*b*s*f*2)
	}
}
