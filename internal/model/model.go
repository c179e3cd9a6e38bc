// Package model describes transformer architectures at the granularity the
// AdaPipe search engine needs: a sequence of pipeline-partitionable layers
// (Embedding, Attention, Feed-Forward, Decoding Head — paper §5) where each
// Attention/FFN layer splits into the computation units of Figure 4, the
// minimal operator groups that are saved or recomputed together.
package model

import "fmt"

// LayerKind classifies the partitionable layers of §5.
type LayerKind int

const (
	// Embedding is the token-embedding layer at the front of the model.
	Embedding LayerKind = iota
	// Attention is a self-attention sub-layer (with its input LayerNorm and
	// residual connection).
	Attention
	// FFN is a feed-forward sub-layer (with its input LayerNorm and
	// residual connection).
	FFN
	// Head is the final LayerNorm plus vocabulary projection.
	Head
)

// String returns the layer-kind name.
func (k LayerKind) String() string {
	switch k {
	case Embedding:
		return "Embedding"
	case Attention:
		return "Attention"
	case FFN:
		return "FFN"
	case Head:
		return "Head"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Layer is one element of the partitionable layer sequence.
type Layer struct {
	// Kind is the layer class.
	Kind LayerKind
	// Index is the position in the full sequence (0-based).
	Index int
}

// UnitKind classifies computation units within a layer (Figure 4).
type UnitKind int

const (
	// UnitLayerNorm is a pre-attention or pre-FFN LayerNorm (plus the
	// residual addition fused with it).
	UnitLayerNorm UnitKind = iota
	// UnitQProj is the query projection GEMM (plus fused transpose/scale).
	UnitQProj
	// UnitKProj is the key projection GEMM.
	UnitKProj
	// UnitVProj is the value projection GEMM.
	UnitVProj
	// UnitCoreAttention is the fused flash-attention kernel; it saves its
	// output and a small internal log-sum-exp tensor.
	UnitCoreAttention
	// UnitOutProj is the attention output projection GEMM. Its output is
	// the Attention layer's result and is always saved (§4.2 restriction).
	UnitOutProj
	// UnitFFNUp is the first FFN GEMM (hidden → ffn).
	UnitFFNUp
	// UnitFFNGate is the gate GEMM of gated FFNs (SwiGLU, Llama 2 only).
	UnitFFNGate
	// UnitFFNAct is the element-wise activation (GeLU or SiLU·gate).
	UnitFFNAct
	// UnitFFNDown is the second FFN GEMM (ffn → hidden). Its output is the
	// FFN layer's result and is always saved (§4.2 restriction).
	UnitFFNDown
	// UnitEmbedLookup is the embedding table lookup.
	UnitEmbedLookup
	// UnitHeadNorm is the final LayerNorm before the head projection.
	UnitHeadNorm
	// UnitHeadProj is the vocabulary projection GEMM producing logits.
	UnitHeadProj
)

// String returns the unit-kind name.
func (k UnitKind) String() string {
	switch k {
	case UnitLayerNorm:
		return "LayerNorm"
	case UnitQProj:
		return "QProj"
	case UnitKProj:
		return "KProj"
	case UnitVProj:
		return "VProj"
	case UnitCoreAttention:
		return "CoreAttention"
	case UnitOutProj:
		return "OutProj"
	case UnitFFNUp:
		return "FFNUp"
	case UnitFFNGate:
		return "FFNGate"
	case UnitFFNAct:
		return "FFNAct"
	case UnitFFNDown:
		return "FFNDown"
	case UnitEmbedLookup:
		return "EmbedLookup"
	case UnitHeadNorm:
		return "HeadNorm"
	case UnitHeadProj:
		return "HeadProj"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// Unit is one computation unit of a layer.
type Unit struct {
	// Kind is the unit class.
	Kind UnitKind
	// Layer is the kind of the layer the unit belongs to.
	Layer LayerKind
	// AlwaysSaved marks units whose outputs AdaPipe keeps unconditionally:
	// the last GEMM of each Attention and FFN layer (§4.2), the embedding
	// output (the pipeline boundary tensor) and the head output (consumed
	// immediately by the loss).
	AlwaysSaved bool
}

// Config describes a transformer model.
type Config struct {
	// Name identifies the model.
	Name string
	// DecoderLayers is the number of decoder blocks; the partitionable
	// sequence contains one Attention and one FFN layer per block.
	DecoderLayers int
	// Hidden is the model width.
	Hidden int
	// Heads is the attention head count.
	Heads int
	// KVHeads is the key/value head count (grouped-query attention when
	// smaller than Heads; Llama 2 70B uses 8).
	KVHeads int
	// FFNHidden is the feed-forward inner width.
	FFNHidden int
	// Vocab is the vocabulary size.
	Vocab int
	// GatedFFN selects a SwiGLU-style FFN with a gate projection.
	GatedFFN bool
	// BytesPerValue is the activation/parameter element size (2 for fp16).
	BytesPerValue int
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	switch {
	case c.DecoderLayers <= 0:
		return fmt.Errorf("model: %s: DecoderLayers must be positive", c.Name)
	case c.Hidden <= 0 || c.FFNHidden <= 0 || c.Vocab <= 0:
		return fmt.Errorf("model: %s: dimensions must be positive", c.Name)
	case c.Heads <= 0 || c.KVHeads <= 0 || c.KVHeads > c.Heads:
		return fmt.Errorf("model: %s: need 0 < KVHeads <= Heads", c.Name)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model: %s: Heads must be a multiple of KVHeads", c.Name)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: %s: Hidden must be divisible by Heads", c.Name)
	case c.BytesPerValue <= 0:
		return fmt.Errorf("model: %s: BytesPerValue must be positive", c.Name)
	}
	return nil
}

// HeadDim returns the per-head width.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// KVWidth returns the total key/value projection width (Hidden scaled by the
// GQA ratio).
func (c Config) KVWidth() int { return c.HeadDim() * c.KVHeads }

// LayerSequence returns the partitionable layer sequence:
// Embedding, (Attention, FFN) × DecoderLayers, Head.
func (c Config) LayerSequence() []Layer {
	seq := make([]Layer, 0, 2*c.DecoderLayers+2)
	seq = append(seq, Layer{Kind: Embedding, Index: 0})
	for i := 0; i < c.DecoderLayers; i++ {
		seq = append(seq, Layer{Kind: Attention, Index: len(seq)})
		seq = append(seq, Layer{Kind: FFN, Index: len(seq)})
	}
	seq = append(seq, Layer{Kind: Head, Index: len(seq)})
	return seq
}

// Units returns the computation units of a layer of the given kind, in
// execution order (Figure 4).
func (c Config) Units(kind LayerKind) []Unit {
	switch kind {
	case Embedding:
		return []Unit{{Kind: UnitEmbedLookup, Layer: Embedding, AlwaysSaved: true}}
	case Attention:
		return []Unit{
			{Kind: UnitLayerNorm, Layer: Attention},
			{Kind: UnitQProj, Layer: Attention},
			{Kind: UnitKProj, Layer: Attention},
			{Kind: UnitVProj, Layer: Attention},
			{Kind: UnitCoreAttention, Layer: Attention},
			{Kind: UnitOutProj, Layer: Attention, AlwaysSaved: true},
		}
	case FFN:
		units := []Unit{
			{Kind: UnitLayerNorm, Layer: FFN},
			{Kind: UnitFFNUp, Layer: FFN},
		}
		if c.GatedFFN {
			units = append(units, Unit{Kind: UnitFFNGate, Layer: FFN})
		}
		units = append(units,
			Unit{Kind: UnitFFNAct, Layer: FFN},
			Unit{Kind: UnitFFNDown, Layer: FFN, AlwaysSaved: true},
		)
		return units
	case Head:
		return []Unit{
			{Kind: UnitHeadNorm, Layer: Head},
			{Kind: UnitHeadProj, Layer: Head, AlwaysSaved: true},
		}
	default:
		return nil
	}
}

// Work says what a unit's forward work counts: dense multiply-adds, the
// fused attention kernel's multiply-adds, or the bytes a bandwidth-bound
// kernel moves.
type Work uint8

// The three kinds of forward work.
const (
	WorkGEMM Work = iota
	WorkAttention
	WorkMemory
)

// dim is one factor of a shape term: a model width, the sequence length
// again, or an element size in bytes.
type dim uint8

const (
	dimOne dim = iota
	dimSeq
	dimHidden
	dimHeads
	dimKV
	dimFFN
	dimVocab
	dimElem // the model's BytesPerValue
	dimFP32 // 4 bytes
)

// term is a shape term: the product of b, s and its three factors.
type term [3]dim

// decl declares a computation unit: the tensors it keeps when saved, and
// its forward work, count × does.
type decl struct {
	keeps []term
	work  Work
	count int
	does  term
}

var (
	hidden, ffn = term{dimHidden, dimElem}, term{dimFFN, dimElem}
	layerNorm   = decl{[]term{hidden}, WorkMemory, 3, hidden} // residual add + LN: reads the input twice
	kvProj      = decl{[]term{{dimKV, dimElem}}, WorkGEMM, 1, term{dimHidden, dimKV}}
	hiddenGEMM  = decl{[]term{hidden}, WorkGEMM, 1, term{dimHidden, dimHidden}}
	ffnGEMM     = decl{[]term{ffn}, WorkGEMM, 1, term{dimHidden, dimFFN}}
	// gatedAct is the SwiGLU activation, which also reads the gate.
	gatedAct = decl{[]term{ffn}, WorkMemory, 3, ffn}
)

// decls declares each unit kind once: what profile prices, and what the
// executor's tests hold train to.
var decls = [...]decl{
	UnitLayerNorm: layerNorm,
	UnitQProj:     hiddenGEMM,
	UnitKProj:     kvProj,
	UnitVProj:     kvProj,
	// QKᵀ and PV are 2·b·s²·h multiply-adds, halved by the causal mask. The
	// kernel keeps its output and the fp32 log-sum-exp.
	UnitCoreAttention: {[]term{hidden, {dimHeads, dimFP32}}, WorkAttention, 1, term{dimSeq, dimHidden}},
	UnitOutProj:       hiddenGEMM,
	UnitFFNUp:         ffnGEMM,
	UnitFFNGate:       ffnGEMM,
	UnitFFNAct:        {[]term{ffn}, WorkMemory, 2, ffn},
	UnitFFNDown:       {[]term{hidden}, WorkGEMM, 1, term{dimFFN, dimHidden}},
	UnitEmbedLookup:   {[]term{hidden}, WorkMemory, 2, hidden},
	UnitHeadNorm:      layerNorm,
	// The logits: large, but in flight only at the last stage.
	UnitHeadProj: {[]term{{dimVocab, dimElem}}, WorkGEMM, 1, term{dimHidden, dimVocab}},
}

// size returns t at micro-batch b and sequence s.
func (c Config) size(t term, b, s int) int64 {
	f := [...]int64{1, int64(s), int64(c.Hidden), int64(c.Heads), int64(c.KVWidth()), int64(c.FFNHidden), int64(c.Vocab), int64(c.BytesPerValue), 4}
	return int64(b) * int64(s) * f[t[0]] * f[t[1]] * f[t[2]]
}

func (c Config) decl(k UnitKind) *decl {
	if k == UnitFFNAct && c.GatedFFN {
		return &gatedAct
	}
	return &decls[k]
}

// SavedBytes returns the bytes a unit of kind k pins when saved, at
// micro-batch b and sequence s, each tensor split over tp ranks.
func (c Config) SavedBytes(k UnitKind, b, s, tp int) int64 {
	var n int64
	for _, t := range c.decl(k).keeps {
		n += c.size(t, b, s) / int64(tp)
	}
	return n
}

// HiddenBytes returns the bytes of one hidden-state activation at
// micro-batch b and sequence s, split over tp ranks: the tensor a layer hands
// the next, and so what crosses a pipeline-stage boundary.
func (c Config) HiddenBytes(b, s, tp int) int64 {
	return c.size(hidden, b, s) / int64(tp)
}

// ForwardWork returns what a unit of kind k's forward work counts, and how
// much of it there is at micro-batch b and sequence s, before any tensor-
// parallel split.
func (c Config) ForwardWork(k UnitKind, b, s int) (Work, int64) {
	d := c.decl(k)
	return d.work, int64(d.count) * c.size(d.does, b, s)
}

// LayerParams returns the parameter count of one layer of the given kind.
func (c Config) LayerParams(kind LayerKind) int64 {
	h := int64(c.Hidden)
	f := int64(c.FFNHidden)
	kv := int64(c.KVWidth())
	v := int64(c.Vocab)
	switch kind {
	case Embedding:
		return v * h
	case Attention:
		// LN + Q + K + V + output projection.
		return 2*h + h*h + 2*h*kv + h*h
	case FFN:
		n := 2*h + h*f + f*h
		if c.GatedFFN {
			n += h * f
		}
		return n
	case Head:
		// Final LN + untied vocabulary projection.
		return 2*h + v*h
	default:
		return 0
	}
}

// GPT3_175B returns the GPT-3 175B configuration evaluated in the paper.
func GPT3_175B() Config {
	return Config{
		Name:          "GPT-3 175B",
		DecoderLayers: 96,
		Hidden:        12288,
		Heads:         96,
		KVHeads:       96,
		FFNHidden:     4 * 12288,
		Vocab:         50257,
		BytesPerValue: 2,
	}
}

// Llama2_70B returns the Llama 2 70B configuration evaluated in the paper
// (grouped-query attention with 8 KV heads and a SwiGLU FFN).
func Llama2_70B() Config {
	return Config{
		Name:          "Llama 2 70B",
		DecoderLayers: 80,
		Hidden:        8192,
		Heads:         64,
		KVHeads:       8,
		FFNHidden:     28672,
		Vocab:         32000,
		GatedFFN:      true,
		BytesPerValue: 2,
	}
}

// Tiny returns a small configuration for tests and examples. layers is the
// decoder-block count.
func Tiny(layers int) Config {
	return Config{
		Name:          fmt.Sprintf("Tiny-%dL", layers),
		DecoderLayers: layers,
		Hidden:        512,
		Heads:         8,
		KVHeads:       8,
		FFNHidden:     2048,
		Vocab:         1024,
		BytesPerValue: 2,
	}
}
