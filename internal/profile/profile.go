// Package profile synthesizes the per-computation-unit costs the AdaPipe
// search engine consumes: forward time Time_f(U), backward time Time_b(U) and
// the activation bytes Mem(U) a unit occupies when configured as saved (§4.2).
//
// The paper obtains these numbers by profiling 5–10 training iterations on
// the real cluster. Without that hardware, this package derives them
// analytically from a roofline model: dense GEMMs and the fused attention
// kernel are compute-bound (FLOPs / effective FLOP/s) while element-wise
// kernels (LayerNorm, activations, embedding lookup) are bandwidth-bound
// (bytes moved / effective bandwidth). The search only depends on the
// relative cost structure — which units are memory-heavy but cheap to
// recompute — and the roofline reproduces exactly that structure.
package profile

import (
	"fmt"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// UnitCost is the profiled cost of one computation unit.
type UnitCost struct {
	// Unit identifies the computation unit.
	Unit model.Unit
	// FwdTime is the forward execution time in seconds.
	FwdTime float64
	// BwdTime is the gradient-computation time in seconds, excluding any
	// recomputation (the recomputation DP adds FwdTime for recomputed
	// units).
	BwdTime float64
	// SavedBytes is the activation memory the unit pins per micro-batch
	// when configured as saved: its output tensor plus internally saved
	// tensors (e.g. the flash-attention log-sum-exp).
	SavedBytes int64
}

// LayerCost aggregates the unit costs of one layer kind. Transformer layers
// of the same kind are homogeneous (§4), so a single LayerCost describes
// every instance.
type LayerCost struct {
	// Kind is the layer kind the costs describe.
	Kind model.LayerKind
	// Units are the per-unit costs in execution order.
	Units []UnitCost
	// FwdTime is the total forward time of the layer.
	FwdTime float64
	// BwdTime is the total backward time of the layer (no recomputation).
	BwdTime float64
	// SavedBytesAll is the activation memory with every unit saved.
	SavedBytesAll int64
	// SavedBytesMin is the activation memory with only the AlwaysSaved
	// units kept (AdaPipe's maximum-recomputation floor).
	SavedBytesMin int64
	// BoundaryBytes is the size of the layer's output tensor — what
	// classic full recomputation saves, and what flows between pipeline
	// stages at layer boundaries.
	BoundaryBytes int64
}

// Profile holds the synthesized costs for one (model, device, strategy,
// sequence length, micro-batch) tuple.
type Profile struct {
	// Model is the profiled architecture.
	Model model.Config
	// Device is the accelerator model.
	Device hardware.Device
	// Strategy is the 3D parallelism configuration.
	Strategy parallel.Strategy
	// SeqLen is the sequence length in tokens.
	SeqLen int
	// MicroBatch is the micro-batch size in samples.
	MicroBatch int
	// Layers maps each layer kind to its cost description.
	Layers map[model.LayerKind]LayerCost
	// CommBytes is the per-micro-batch activation payload crossing a
	// pipeline-stage boundary (one boundary tensor shard per TP rank).
	CommBytes int64
	// TPBandwidth is the intra-node link bandwidth used for tensor-parallel
	// collectives, bytes/s; zero disables TP communication modeling.
	TPBandwidth float64
}

// NewWithComm synthesizes a Profile including tensor-parallel collective
// time. With sequence parallelism each Attention/FFN layer performs one
// all-gather entering and one reduce-scatter leaving its GEMM region, moving
// the full activation tensor with a (t−1)/t ring factor over the intra-node
// links; the backward pass mirrors it. This is what makes very large TP lose
// to mid-size TP in Table 3 despite its smaller bubble ratio.
func NewWithComm(cfg model.Config, dev hardware.Device, strat parallel.Strategy, seqLen, microBatch int, tpBandwidth float64) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	if seqLen <= 0 || microBatch <= 0 {
		return nil, fmt.Errorf("profile: seqLen and microBatch must be positive (got %d, %d)", seqLen, microBatch)
	}
	p := &Profile{
		Model:       cfg,
		Device:      dev,
		Strategy:    strat,
		SeqLen:      seqLen,
		MicroBatch:  microBatch,
		Layers:      make(map[model.LayerKind]LayerCost, 4),
		TPBandwidth: tpBandwidth,
		// The boundary tensor between stages is the hidden-state
		// activation, sharded across TP ranks by sequence parallelism.
		CommBytes: cfg.HiddenBytes(microBatch, seqLen, strat.TP),
	}
	return p, p.addLayers(func(u model.Unit) (UnitCost, error) { return p.unitCost(u), nil })
}

// shardEfficiency models how kernel efficiency degrades as tensor
// parallelism shrinks per-rank tensor shapes (§7.3: "smaller TP ... enhances
// the computation efficiency of operators as tensors have larger shapes").
// Each doubling of TP costs about 4%.
func (p *Profile) shardEfficiency() float64 {
	eff := 1.0
	for t := 1; t < p.Strategy.TP; t *= 2 {
		eff *= 0.96
	}
	return eff
}

// unitCost prices one computation unit from its model declaration: GEMMs
// and the fused attention kernel are compute-bound (two FLOPs per
// multiply-add), the rest bandwidth-bound.
func (p *Profile) unitCost(u model.Unit) UnitCost {
	b, s, t := p.MicroBatch, p.SeqLen, float64(p.Strategy.TP)
	c := UnitCost{Unit: u, SavedBytes: p.Model.SavedBytes(u.Kind, b, s, p.Strategy.TP)}
	switch work, n := p.Model.ForwardWork(u.Kind, b, s); work {
	case model.WorkGEMM:
		c.FwdTime = 2 * float64(n) / t / (p.Device.EffectiveGEMMFLOPS() * p.shardEfficiency())
		c.BwdTime = 2 * c.FwdTime // dgrad + wgrad
	case model.WorkAttention:
		c.FwdTime = 2 * float64(n) / t / (p.Device.EffectiveAttnFLOPS() * p.shardEfficiency())
		// Flash attention recomputes the score matrix in its own
		// backward, making it ~2.5× the forward.
		c.BwdTime = 2.5 * c.FwdTime
	default:
		c.FwdTime = float64(n) / t / p.Device.EffectiveBandwidth()
		c.BwdTime = c.FwdTime
	}
	return c
}

// tpCommTime returns the per-layer tensor-parallel collective time: one
// all-gather plus one reduce-scatter of the full activation tensor per pass.
func (p *Profile) tpCommTime(kind model.LayerKind) float64 {
	t := p.Strategy.TP
	if p.TPBandwidth <= 0 || t <= 1 {
		return 0
	}
	switch kind {
	case model.Attention, model.FFN, model.Head:
		full := float64(p.MicroBatch) * float64(p.SeqLen) * float64(p.Model.Hidden) * float64(p.Model.BytesPerValue)
		ring := float64(t-1) / float64(t)
		return 2 * full * ring / p.TPBandwidth
	default:
		return 0
	}
}

// addLayers fills p.Layers from cost, called once per unit of every layer
// kind: a layer sums its units' costs, plus its TP collective time in each
// pass, and its boundary tensor is CommBytes.
func (p *Profile) addLayers(cost func(model.Unit) (UnitCost, error)) error {
	for _, kind := range []model.LayerKind{model.Embedding, model.Attention, model.FFN, model.Head} {
		units := p.Model.Units(kind)
		lc := LayerCost{Kind: kind, Units: make([]UnitCost, 0, len(units)), BoundaryBytes: p.CommBytes}
		for _, u := range units {
			uc, err := cost(u)
			if err != nil {
				return err
			}
			lc.Units = append(lc.Units, uc)
			lc.FwdTime += uc.FwdTime
			lc.BwdTime += uc.BwdTime
			lc.SavedBytesAll += uc.SavedBytes
			if u.AlwaysSaved {
				lc.SavedBytesMin += uc.SavedBytes
			}
		}
		comm := p.tpCommTime(kind)
		lc.FwdTime += comm
		lc.BwdTime += comm
		p.Layers[kind] = lc
	}
	return nil
}

// CommTime returns the stage-boundary transfer time of one micro-batch
// activation given a link bandwidth and latency.
func (p *Profile) CommTime(bandwidth, latency float64) float64 {
	if bandwidth <= 0 {
		return 0
	}
	return latency + float64(p.CommBytes)/bandwidth
}
