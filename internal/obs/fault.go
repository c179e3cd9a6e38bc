package obs

// FaultCounters aggregates the robustness story of one training run: how
// many faults were injected (by kind) and what the recovery layer did about
// them. The injection counts come from the fault injector; the action counts
// from the supervisor and replanning loop. Exported via FaultMetrics through
// the same Prometheus text exposition as the sim and trace gauges.
type FaultCounters struct {
	// Stragglers, Panics, Corruptions and NodeLosses count injected faults
	// by kind (NodeLosses counts ops killed by a dead node, so one lost node
	// typically shows up once per attempt until the resize).
	Stragglers, Panics, Corruptions, NodeLosses int64
	// Retries counts step retries from the in-memory snapshot.
	Retries int64
	// SkippedSteps counts optimizer steps skipped by the non-finite guard
	// after the retry budget was spent.
	SkippedSteps int64
	// WatchdogTrips counts iterations canceled by the watchdog timeout.
	WatchdogTrips int64
	// Replans counts adopted straggler-driven repartitions.
	Replans int64
	// LossesDetected counts nodes the membership model classified as
	// permanently lost (the detection half of elastic recovery).
	LossesDetected int64
	// Resizes counts elastic replan+rebind cycles onto a new cluster shape
	// (shrinks after a node loss plus grows after a scale-up arrival).
	Resizes int64
	// ReplanWallNanos is the total wall-clock time spent inside elastic
	// resizes (restore + replan + rebuild + rebind), in nanoseconds.
	ReplanWallNanos int64
}

// Add accumulates another counter set (e.g. merging per-phase runs).
func (c *FaultCounters) Add(o FaultCounters) {
	c.Stragglers += o.Stragglers
	c.Panics += o.Panics
	c.Corruptions += o.Corruptions
	c.NodeLosses += o.NodeLosses
	c.Retries += o.Retries
	c.SkippedSteps += o.SkippedSteps
	c.WatchdogTrips += o.WatchdogTrips
	c.Replans += o.Replans
	c.LossesDetected += o.LossesDetected
	c.Resizes += o.Resizes
	c.ReplanWallNanos += o.ReplanWallNanos
}

// FaultMetrics converts fault counters into gauges under the given name
// prefix, with injected faults labeled by kind.
func FaultMetrics(prefix string, c FaultCounters) []Metric {
	injected := "injected faults by kind"
	return []Metric{
		{Name: prefix + "_injected_total", Help: injected, Labels: [][2]string{{"kind", "straggler"}}, Value: float64(c.Stragglers)},
		{Name: prefix + "_injected_total", Help: injected, Labels: [][2]string{{"kind", "panic"}}, Value: float64(c.Panics)},
		{Name: prefix + "_injected_total", Help: injected, Labels: [][2]string{{"kind", "corrupt"}}, Value: float64(c.Corruptions)},
		{Name: prefix + "_injected_total", Help: injected, Labels: [][2]string{{"kind", "nodeloss"}}, Value: float64(c.NodeLosses)},
		{Name: prefix + "_retries_total", Help: "step retries from the in-memory snapshot", Value: float64(c.Retries)},
		{Name: prefix + "_skipped_steps_total", Help: "optimizer steps skipped by the non-finite guard", Value: float64(c.SkippedSteps)},
		{Name: prefix + "_watchdog_trips_total", Help: "iterations canceled by the watchdog timeout", Value: float64(c.WatchdogTrips)},
		{Name: prefix + "_replans_total", Help: "adopted straggler-driven repartitions", Value: float64(c.Replans)},
		{Name: prefix + "_node_losses_detected_total", Help: "nodes classified permanently lost by the membership model", Value: float64(c.LossesDetected)},
		{Name: prefix + "_resizes_total", Help: "elastic replan+rebind cycles onto a new cluster shape", Value: float64(c.Resizes)},
		{Name: prefix + "_replan_wall_seconds", Help: "wall-clock time spent inside elastic resizes", Value: float64(c.ReplanWallNanos) / 1e9},
	}
}
