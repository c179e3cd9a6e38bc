package hardware

import (
	"math"
	"testing"
)

func TestStockDevicesValid(t *testing.T) {
	for _, d := range []Device{A100(), Ascend910()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	for _, c := range []Cluster{ClusterA(), ClusterB(), ClusterBLarge()} {
		if err := c.Validate(); err != nil {
			t.Errorf("cluster %s: %v", c.Name, err)
		}
	}
}

func TestClusterSizes(t *testing.T) {
	if got := ClusterA().Devices(); got != 64 {
		t.Errorf("cluster A devices = %d, want 64", got)
	}
	if got := ClusterB().Devices(); got != 256 {
		t.Errorf("cluster B devices = %d, want 256", got)
	}
	if got := ClusterBLarge().Devices(); got != 2048 {
		t.Errorf("cluster B large devices = %d, want 2048", got)
	}
}

func TestEffectiveRates(t *testing.T) {
	d := A100()
	if got := d.EffectiveGEMMFLOPS(); got <= 0 || got >= d.PeakFLOPS {
		t.Errorf("effective GEMM FLOPS %g outside (0, peak)", got)
	}
	if d.EffectiveAttnFLOPS() >= d.EffectiveGEMMFLOPS() {
		t.Error("attention kernel should be less efficient than plain GEMM")
	}
	if got := d.EffectiveBandwidth(); got <= 0 || got >= d.MemBandwidth {
		t.Errorf("effective bandwidth %g outside (0, raw)", got)
	}
}

func TestMemoryCapacities(t *testing.T) {
	if got := A100().MemCapacity; got != 80*GiB {
		t.Errorf("A100 capacity = %d, want 80 GiB", got)
	}
	if got := Ascend910().MemCapacity; got != 32*GiB {
		t.Errorf("Ascend 910 capacity = %d, want 32 GiB", got)
	}
}

func TestDeviceValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Device)
	}{
		{"zero flops", func(d *Device) { d.PeakFLOPS = 0 }},
		{"zero bandwidth", func(d *Device) { d.MemBandwidth = 0 }},
		{"zero capacity", func(d *Device) { d.MemCapacity = 0 }},
		{"gemm eff too high", func(d *Device) { d.GEMMEfficiency = 1.5 }},
		{"gemm eff zero", func(d *Device) { d.GEMMEfficiency = 0 }},
		{"attn eff zero", func(d *Device) { d.AttnEfficiency = 0 }},
		{"bw eff above one", func(d *Device) { d.BandwidthEfficiency = 2 }},
		{"nan flops", func(d *Device) { d.PeakFLOPS = math.NaN() }},
		{"nan bandwidth", func(d *Device) { d.MemBandwidth = math.NaN() }},
		{"nan gemm eff", func(d *Device) { d.GEMMEfficiency = math.NaN() }},
		{"nan attn eff", func(d *Device) { d.AttnEfficiency = math.NaN() }},
		{"nan bw eff", func(d *Device) { d.BandwidthEfficiency = math.NaN() }},
		{"inf flops", func(d *Device) { d.PeakFLOPS = math.Inf(1) }},
		{"inf bandwidth", func(d *Device) { d.MemBandwidth = math.Inf(1) }},
	}
	for _, tc := range cases {
		d := A100()
		tc.mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid device", tc.name)
		}
	}
}

func TestClusterValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"zero nodes", func(c *Cluster) { c.Nodes = 0 }},
		{"zero devices per node", func(c *Cluster) { c.DevicesPerNode = 0 }},
		{"zero intra bw", func(c *Cluster) { c.IntraNodeBandwidth = 0 }},
		{"zero inter bw", func(c *Cluster) { c.InterNodeBandwidth = 0 }},
		{"negative latency", func(c *Cluster) { c.LinkLatency = -1 }},
		{"bad device", func(c *Cluster) { c.Device.PeakFLOPS = -1 }},
		{"nan intra bw", func(c *Cluster) { c.IntraNodeBandwidth = math.NaN() }},
		{"nan inter bw", func(c *Cluster) { c.InterNodeBandwidth = math.NaN() }},
		{"nan latency", func(c *Cluster) { c.LinkLatency = math.NaN() }},
		{"inf intra bw", func(c *Cluster) { c.IntraNodeBandwidth = math.Inf(1) }},
		{"inf inter bw", func(c *Cluster) { c.InterNodeBandwidth = math.Inf(1) }},
		{"inf latency", func(c *Cluster) { c.LinkLatency = math.Inf(1) }},
	}
	for _, tc := range cases {
		c := ClusterA()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid cluster", tc.name)
		}
	}
}

func TestPipelineBandwidth(t *testing.T) {
	multi := ClusterA()
	if got := multi.PipelineBandwidth(); got != multi.InterNodeBandwidth {
		t.Errorf("multi-node pipeline bandwidth = %g, want inter-node %g", got, multi.InterNodeBandwidth)
	}
	single := ClusterA()
	single.Nodes = 1
	if got := single.PipelineBandwidth(); got != single.IntraNodeBandwidth {
		t.Errorf("single-node pipeline bandwidth = %g, want intra-node %g", got, single.IntraNodeBandwidth)
	}
}
