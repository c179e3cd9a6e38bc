package core

import (
	"encoding/json"
	"fmt"
)

// planJSON is the stable on-disk representation of a Plan: everything an
// execution engine needs to apply the strategy (§6's search-engine →
// execution-engine handoff), without internal solver state.
type planJSON struct {
	Model        string          `json:"model"`
	TP           int             `json:"tp"`
	PP           int             `json:"pp"`
	DP           int             `json:"dp"`
	SeqLen       int             `json:"seq_len"`
	MicroBatch   int             `json:"micro_batch"`
	MicroBatches int             `json:"micro_batches"`
	Recompute    string          `json:"recompute"`
	Partition    string          `json:"partition"`
	TotalSec     float64         `json:"modeled_total_sec"`
	WarmupSec    float64         `json:"modeled_warmup_sec"`
	EndingSec    float64         `json:"modeled_ending_sec"`
	SteadySec    float64         `json:"modeled_steady_sec_per_micro"`
	CommFwdSec   float64         `json:"comm_fwd_sec"`
	CommBwdSec   float64         `json:"comm_bwd_sec"`
	Stages       []stagePlanJSON `json:"stages"`
}

type stagePlanJSON struct {
	Stage         int            `json:"stage"`
	LayerLo       int            `json:"layer_lo"`
	LayerHi       int            `json:"layer_hi"`
	FwdSec        float64        `json:"fwd_sec"`
	BwdSec        float64        `json:"bwd_sec"`
	SavedUnits    map[string]int `json:"saved_units"`
	SavedPerMicro int64          `json:"saved_bytes_per_micro"`
	StaticBytes   int64          `json:"static_bytes"`
	PeakBytes     int64          `json:"peak_bytes"`
}

// MarshalJSON serializes the plan in the stable execution-engine format.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{
		Model:        p.Model,
		TP:           p.Strategy.TP,
		PP:           p.Strategy.PP,
		DP:           p.Strategy.DP,
		SeqLen:       p.SeqLen,
		MicroBatch:   p.MicroBatch,
		MicroBatches: p.MicroBatches,
		Recompute:    p.Recompute.String(),
		Partition:    p.Partition.String(),
		TotalSec:     p.Total,
		WarmupSec:    p.W,
		EndingSec:    p.E,
		SteadySec:    p.M,
		CommFwdSec:   p.CommFwd,
		CommBwdSec:   p.CommBwd,
	}
	for _, s := range p.Stages {
		out.Stages = append(out.Stages, stagePlanJSON{
			Stage:         s.Stage,
			LayerLo:       s.LayerLo,
			LayerHi:       s.LayerHi,
			FwdSec:        s.Fwd,
			BwdSec:        s.Bwd,
			SavedUnits:    s.Saved,
			SavedPerMicro: s.Mem.SavedPerMicro,
			StaticBytes:   s.Mem.Static(),
			PeakBytes:     s.Mem.Total(),
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores the execution-relevant fields of a serialized plan
// (layer ranges, save sets, times, memory figures). Solver-internal detail
// (full memory breakdowns, unit totals) is not round-tripped.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decoding plan: %w", err)
	}
	p.Model = in.Model
	p.Strategy.TP, p.Strategy.PP, p.Strategy.DP = in.TP, in.PP, in.DP
	p.SeqLen, p.MicroBatch, p.MicroBatches = in.SeqLen, in.MicroBatch, in.MicroBatches
	p.Total, p.W, p.E, p.M = in.TotalSec, in.WarmupSec, in.EndingSec, in.SteadySec
	p.CommFwd, p.CommBwd = in.CommFwdSec, in.CommBwdSec
	var ok bool
	if p.Recompute, ok = modeByName[RecomputeMode](recomputeNames[:], in.Recompute); !ok {
		return fmt.Errorf("core: unknown recompute mode %q", in.Recompute)
	}
	if p.Partition, ok = modeByName[PartitionMode](partitionNames[:], in.Partition); !ok {
		return fmt.Errorf("core: unknown partition mode %q", in.Partition)
	}
	p.Stages = nil
	for _, s := range in.Stages {
		sp := StagePlan{
			Stage:   s.Stage,
			LayerLo: s.LayerLo,
			LayerHi: s.LayerHi,
			Fwd:     s.FwdSec,
			Bwd:     s.BwdSec,
		}
		sp.Recompute.Feasible = true
		sp.Saved = s.SavedUnits
		for _, c := range s.SavedUnits {
			sp.Recompute.SavedUnits += c
		}
		sp.Mem.SavedPerMicro = s.SavedPerMicro
		// Static() components are not individually round-tripped; stash
		// the aggregate in Params so Static() and Total() reproduce.
		sp.Mem.Params = s.StaticBytes
		sp.Mem.InFlight = in.PP - s.Stage
		p.Stages = append(p.Stages, sp)
	}
	if len(p.Stages) != in.PP {
		return fmt.Errorf("core: plan has %d stages for PP=%d", len(p.Stages), in.PP)
	}
	return nil
}

// Validate checks a plan's structural invariants — contiguous non-empty
// stage layer ranges covering [0, layerCount), positive times, one stage per
// pipeline rank — so plans loaded from disk can be trusted before execution.
// layerCount may be zero to skip the coverage check when the model is not at
// hand.
func (p *Plan) Validate(layerCount int) error {
	if p.Strategy.Validate() != nil {
		return fmt.Errorf("core: plan has invalid strategy %s", p.Strategy)
	}
	if len(p.Stages) != p.Strategy.PP {
		return fmt.Errorf("core: plan has %d stages for PP=%d", len(p.Stages), p.Strategy.PP)
	}
	if p.MicroBatches < p.Strategy.PP {
		return fmt.Errorf("core: %d micro-batches cannot fill %d stages", p.MicroBatches, p.Strategy.PP)
	}
	at := 0
	for i, s := range p.Stages {
		if s.Stage != i {
			return fmt.Errorf("core: stage %d carries index %d", i, s.Stage)
		}
		if s.LayerLo != at {
			return fmt.Errorf("core: stage %d starts at layer %d, want %d", i, s.LayerLo, at)
		}
		if s.LayerHi <= s.LayerLo {
			return fmt.Errorf("core: stage %d is empty", i)
		}
		if s.Fwd <= 0 || s.Bwd <= 0 {
			return fmt.Errorf("core: stage %d has non-positive times", i)
		}
		at = s.LayerHi
	}
	if layerCount > 0 && at != layerCount {
		return fmt.Errorf("core: plan covers %d layers, model has %d", at, layerCount)
	}
	return nil
}
