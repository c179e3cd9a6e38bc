// Package hardware describes the accelerators and interconnects of the two
// evaluation clusters from the AdaPipe paper (ASPLOS'24, §7.1).
//
// The paper profiles real devices; this reproduction substitutes analytical
// device models. A Device carries the roofline parameters (peak half-precision
// FLOP/s, HBM bandwidth, memory capacity) that the profiler combines with
// per-unit FLOP and byte counts to synthesize the forward/backward times and
// activation sizes the search engine consumes.
package hardware

import (
	"fmt"
	"math"
)

// Device models a single accelerator.
type Device struct {
	// Name identifies the accelerator, e.g. "A100-80GB".
	Name string
	// PeakFLOPS is the peak half-precision throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the HBM bandwidth in bytes/s.
	MemBandwidth float64
	// MemCapacity is the usable device memory in bytes.
	MemCapacity int64
	// GEMMEfficiency is the fraction of PeakFLOPS achieved by large dense
	// GEMMs (tensor cores rarely exceed ~50% end to end).
	GEMMEfficiency float64
	// AttnEfficiency is the fraction of PeakFLOPS achieved by the fused
	// flash-attention kernel, which is less efficient than plain GEMMs.
	AttnEfficiency float64
	// BandwidthEfficiency is the fraction of MemBandwidth achieved by
	// element-wise kernels (LayerNorm, activations).
	BandwidthEfficiency float64
}

// EffectiveGEMMFLOPS returns the realized GEMM throughput in FLOP/s.
func (d Device) EffectiveGEMMFLOPS() float64 { return d.PeakFLOPS * d.GEMMEfficiency }

// EffectiveAttnFLOPS returns the realized attention-kernel throughput.
func (d Device) EffectiveAttnFLOPS() float64 { return d.PeakFLOPS * d.AttnEfficiency }

// EffectiveBandwidth returns the realized element-wise bandwidth in bytes/s.
func (d Device) EffectiveBandwidth() float64 { return d.MemBandwidth * d.BandwidthEfficiency }

// positiveFinite reports 0 < x < +Inf; it is false for NaN.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Validate reports whether the device parameters are physically meaningful.
// Each check is written to fail on NaN, and the rates on +Inf.
func (d Device) Validate() error {
	switch {
	case !positiveFinite(d.PeakFLOPS):
		return fmt.Errorf("hardware: %s: PeakFLOPS must be positive and finite", d.Name)
	case !positiveFinite(d.MemBandwidth):
		return fmt.Errorf("hardware: %s: MemBandwidth must be positive and finite", d.Name)
	case d.MemCapacity <= 0:
		return fmt.Errorf("hardware: %s: MemCapacity must be positive", d.Name)
	case !(d.GEMMEfficiency > 0 && d.GEMMEfficiency <= 1):
		return fmt.Errorf("hardware: %s: GEMMEfficiency out of (0,1]", d.Name)
	case !(d.AttnEfficiency > 0 && d.AttnEfficiency <= 1):
		return fmt.Errorf("hardware: %s: AttnEfficiency out of (0,1]", d.Name)
	case !(d.BandwidthEfficiency > 0 && d.BandwidthEfficiency <= 1):
		return fmt.Errorf("hardware: %s: BandwidthEfficiency out of (0,1]", d.Name)
	}
	return nil
}

// Cluster models a homogeneous accelerator cluster.
type Cluster struct {
	// Name identifies the cluster ("A" or "B" in the paper).
	Name string
	// Device is the accelerator installed in every node.
	Device Device
	// DevicesPerNode is the accelerator count per node (8 on both clusters).
	DevicesPerNode int
	// Nodes is the node count.
	Nodes int
	// IntraNodeBandwidth is the per-pair bandwidth between accelerators in
	// one node (NVLink / on-board mesh), bytes/s.
	IntraNodeBandwidth float64
	// InterNodeBandwidth is the per-pair bandwidth between accelerators in
	// different nodes (NIC share), bytes/s.
	InterNodeBandwidth float64
	// LinkLatency is the fixed per-message latency in seconds.
	LinkLatency float64
}

// Devices returns the total accelerator count.
func (c Cluster) Devices() int { return c.DevicesPerNode * c.Nodes }

// Validate reports whether the cluster parameters are meaningful.
func (c Cluster) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	switch {
	case c.DevicesPerNode <= 0:
		return fmt.Errorf("hardware: %s: DevicesPerNode must be positive", c.Name)
	case c.Nodes <= 0:
		return fmt.Errorf("hardware: %s: Nodes must be positive", c.Name)
	case !(positiveFinite(c.IntraNodeBandwidth) && positiveFinite(c.InterNodeBandwidth)):
		return fmt.Errorf("hardware: %s: link bandwidths must be positive and finite", c.Name)
	case !(c.LinkLatency >= 0 && c.LinkLatency <= math.MaxFloat64):
		return fmt.Errorf("hardware: %s: LinkLatency must be non-negative and finite", c.Name)
	}
	return nil
}

// PipelineBandwidth returns the effective bandwidth for a point-to-point
// activation transfer between adjacent pipeline stages. The pipeline
// boundary crosses nodes (pipeline parallelism is the inter-node level of 3D
// parallelism), and each TP rank sends its own activation shard over its NIC
// share, so per-rank bandwidth is InterNodeBandwidth. On a single-node
// cluster the faster intra-node links apply.
func (c Cluster) PipelineBandwidth() float64 {
	if c.Nodes == 1 {
		return c.IntraNodeBandwidth
	}
	return c.InterNodeBandwidth
}

const (
	// GiB is one gibibyte in bytes.
	GiB = int64(1) << 30
	// TFLOPS is 1e12 FLOP/s.
	TFLOPS = 1e12
	// GBps is 1e9 bytes/s.
	GBps = 1e9
)

// A100 returns the analytical model of an NVIDIA A100-80GB accelerator
// (cluster A in the paper).
func A100() Device {
	return Device{
		Name:                "A100-80GB",
		PeakFLOPS:           312 * TFLOPS, // FP16 tensor core peak
		MemBandwidth:        2039 * GBps,  // HBM2e
		MemCapacity:         80 * GiB,
		GEMMEfficiency:      0.47,
		AttnEfficiency:      0.35,
		BandwidthEfficiency: 0.80,
	}
}

// Ascend910 returns the analytical model of a Huawei Ascend 910-32GB
// accelerator (cluster B in the paper).
func Ascend910() Device {
	return Device{
		Name:                "Ascend910-32GB",
		PeakFLOPS:           256 * TFLOPS, // FP16 peak
		MemBandwidth:        1200 * GBps,
		MemCapacity:         32 * GiB,
		GEMMEfficiency:      0.42,
		AttnEfficiency:      0.30,
		BandwidthEfficiency: 0.75,
	}
}

// ClusterA returns the 8-node DGX-A100 cluster from §7.1: 8×A100 per node,
// NVLink intra-node, 800 Gb/s InfiniBand inter-node.
func ClusterA() Cluster {
	return Cluster{
		Name:               "A",
		Device:             A100(),
		DevicesPerNode:     8,
		Nodes:              8,
		IntraNodeBandwidth: 300 * GBps, // NVLink 3
		InterNodeBandwidth: 100 * GBps, // 800 Gb/s IB per node
		LinkLatency:        5e-6,
	}
}

// ClusterB returns the 32-node Atlas 800 cluster from §7.1: 8×Ascend 910 per
// node, 30 GB/s on-board mesh, one 100 Gb/s NIC per NPU.
func ClusterB() Cluster {
	return Cluster{
		Name:               "B",
		Device:             Ascend910(),
		DevicesPerNode:     8,
		Nodes:              32,
		IntraNodeBandwidth: 30 * GBps,
		InterNodeBandwidth: 12.5 * GBps, // 100 Gb/s NIC
		LinkLatency:        10e-6,
	}
}

// ClusterBLarge returns cluster B scaled to the large-scale experiments
// (up to 2048 NPUs = 256 nodes) used for Figure 7.
func ClusterBLarge() Cluster {
	c := ClusterB()
	c.Nodes = 256
	return c
}
