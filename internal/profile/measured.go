package profile

import (
	"fmt"
	"math"

	"adapipe/internal/hardware"
	"adapipe/internal/model"
	"adapipe/internal/parallel"
)

// Measurement is one profiled computation unit, as the paper's search engine
// obtains it from a 5–10 iteration preliminary run (§4.2): forward and
// backward wall time plus the bytes the unit pins when saved.
type Measurement struct {
	// FwdSeconds is the measured forward time of the unit.
	FwdSeconds float64
	// BwdSeconds is the measured backward time (without recomputation).
	BwdSeconds float64
	// SavedBytes is the activation footprint when the unit is saved.
	SavedBytes int64
}

// MeasurementKey identifies a computation unit within a layer kind.
type MeasurementKey struct {
	// Layer is the layer kind.
	Layer model.LayerKind
	// Unit is the unit kind.
	Unit model.UnitKind
}

// FromMeasurements builds a Profile from real profiling data instead of the
// analytical roofline, preserving the paper's deployment path: run a few
// iterations on the actual cluster, record per-unit timestamps and sizes,
// then search. Every unit of every layer kind present in the model must be
// covered. boundaryBytes is the stage-boundary activation payload (per
// micro-batch, per TP rank). A measured layer carries no TP-collective term:
// it costs exactly the sum of its units' measurements.
func FromMeasurements(cfg model.Config, strat parallel.Strategy, seqLen, microBatch int,
	measurements map[MeasurementKey]Measurement, boundaryBytes int64) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	if seqLen <= 0 || microBatch <= 0 {
		return nil, fmt.Errorf("profile: seqLen and microBatch must be positive (got %d, %d)", seqLen, microBatch)
	}
	if boundaryBytes <= 0 {
		return nil, fmt.Errorf("profile: boundaryBytes must be positive, got %d", boundaryBytes)
	}
	p := &Profile{
		Model:      cfg,
		Device:     hardware.Device{Name: "measured"},
		Strategy:   strat,
		SeqLen:     seqLen,
		MicroBatch: microBatch,
		Layers:     make(map[model.LayerKind]LayerCost, 4),
		CommBytes:  boundaryBytes,
	}
	err := p.addLayers(func(u model.Unit) (UnitCost, error) {
		m, ok := measurements[MeasurementKey{Layer: u.Layer, Unit: u.Kind}]
		if !ok {
			return UnitCost{}, fmt.Errorf("profile: missing measurement for %v/%v", u.Layer, u.Kind)
		}
		if !positiveFinite(m.FwdSeconds) || !positiveFinite(m.BwdSeconds) || m.SavedBytes <= 0 {
			return UnitCost{}, fmt.Errorf("profile: non-positive or non-finite measurement for %v/%v: %+v", u.Layer, u.Kind, m)
		}
		return UnitCost{Unit: u, FwdTime: m.FwdSeconds, BwdTime: m.BwdSeconds, SavedBytes: m.SavedBytes}, nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Measurements extracts this profile's unit costs in measurement form — the
// inverse of FromMeasurements, useful for persisting a profile or perturbing
// it in calibration tests.
func (p *Profile) Measurements() map[MeasurementKey]Measurement {
	out := make(map[MeasurementKey]Measurement)
	for kind, lc := range p.Layers {
		for _, uc := range lc.Units {
			out[MeasurementKey{Layer: kind, Unit: uc.Unit.Kind}] = Measurement{
				FwdSeconds: uc.FwdTime,
				BwdSeconds: uc.BwdTime,
				SavedBytes: uc.SavedBytes,
			}
		}
	}
	return out
}

// positiveFinite reports whether x is a usable time: false for zero,
// negatives, NaN and +Inf alike.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
