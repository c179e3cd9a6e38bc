package adapipe

import (
	"adapipe/internal/core"
	"adapipe/internal/obs"
	"adapipe/internal/train"
)

// Observability façade: measured-run tracing and Prometheus-style metric
// exposition over the internal obs package.
type (
	// TrainTrace is a measured pipeline iteration: per-op wall-clock spans,
	// per-stage stall time and live-activation curves. Convert to a
	// SimResult via its Result method to reuse Gantt/ChromeTrace/MemoryCSV.
	TrainTrace = train.Trace
	// Metric is one Prometheus-style gauge sample.
	Metric = obs.Metric
	// SearchStats counts the planner's search effort (knapsack runs,
	// cache hit rate, DP cells, wall time); every Plan carries a snapshot
	// in its Search field.
	SearchStats = core.SearchStats
)

// RenderProm serializes metrics in the Prometheus text exposition format.
func RenderProm(metrics []Metric) string { return obs.RenderProm(metrics) }

// SimMetrics converts a simulated result into gauges under the given name
// prefix (iteration time, bubble ratio, per-device busy/bubble/peak-bytes).
func SimMetrics(prefix string, res SimResult) []Metric { return obs.SimMetrics(prefix, res) }

// TraceMetrics converts a measured trace into gauges under the given name
// prefix (wall time, stall ratio, per-stage busy/stall/peak-activation).
func TraceMetrics(prefix string, t *TrainTrace) []Metric { return obs.TraceMetrics(prefix, t) }
