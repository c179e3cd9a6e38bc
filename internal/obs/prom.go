package obs

import (
	"fmt"
	"strconv"
	"strings"

	"adapipe/internal/sim"
)

// Metric is one Prometheus-style gauge sample. Labels are an ordered slice
// (not a map) so the exposition is byte-for-byte deterministic.
type Metric struct {
	// Name is the metric name, e.g. "adapipe_sim_iter_seconds".
	Name string
	// Help is the one-line HELP text emitted once per metric name.
	Help string
	// Labels are (key, value) pairs in emission order.
	Labels [][2]string
	// Value is the sample value.
	Value float64
}

// RenderProm renders metrics in the Prometheus text exposition format
// (version 0.0.4): `# HELP`/`# TYPE gauge` once per metric name in first-
// appearance order, then one sample line per metric. The output is
// deterministic for a deterministic input slice.
func RenderProm(metrics []Metric) string {
	var b strings.Builder
	seen := map[string]bool{}
	// Group samples under their first-appearance HELP/TYPE header without
	// reordering across names.
	for i := 0; i < len(metrics); i++ {
		m := metrics[i]
		if seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		if m.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, escapeHelp(m.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s gauge\n", m.Name)
		for _, s := range metrics[i:] {
			if s.Name != m.Name {
				continue
			}
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for li, l := range s.Labels {
					if li > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l[0], l[1])
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SimMetrics converts a simulated (or measured-and-converted) iteration into
// gauges under the given name prefix: makespan, bubble ratio, and per-device
// busy/bubble/peak series.
func SimMetrics(prefix string, r sim.Result) []Metric {
	ms := []Metric{
		{Name: prefix + "_iter_seconds", Help: "iteration makespan in seconds", Value: r.IterTime},
		{Name: prefix + "_bubble_ratio", Help: "idle share of total device time", Value: r.BubbleRatio()},
	}
	for d := range r.Busy {
		dev := [2]string{"device", strconv.Itoa(d)}
		ms = append(ms,
			Metric{Name: prefix + "_device_busy_seconds", Help: "per-device compute-busy seconds", Labels: [][2]string{dev}, Value: r.Busy[d]},
			Metric{Name: prefix + "_device_bubble_seconds", Help: "per-device idle (bubble) seconds", Labels: [][2]string{dev}, Value: r.Bubble[d]},
		)
	}
	for d, pk := range r.PeakMem {
		ms = append(ms, Metric{
			Name: prefix + "_device_peak_bytes", Help: "per-device peak memory in bytes",
			Labels: [][2]string{{"device", strconv.Itoa(d)}}, Value: float64(pk),
		})
	}
	return ms
}

// TraceMetrics converts a measured engine trace into gauges: wall time,
// stall ratio, and per-stage busy/stall/peak-activation series. These are
// the engine-only quantities SimMetrics cannot express (channel-wait stall
// is invisible to the simulator, which has no channels).
func TraceMetrics(prefix string, t *Trace) []Metric {
	ms := []Metric{
		{Name: prefix + "_wall_seconds", Help: "measured iteration wall time in seconds", Value: t.WallTime},
		{Name: prefix + "_stall_ratio", Help: "channel-wait share of total stage time", Value: t.StallRatio()},
	}
	for s := range t.Busy {
		stage := [2]string{"stage", strconv.Itoa(s)}
		ms = append(ms,
			Metric{Name: prefix + "_stage_busy_seconds", Help: "per-stage compute seconds", Labels: [][2]string{stage}, Value: t.Busy[s]},
			Metric{Name: prefix + "_stage_stall_seconds", Help: "per-stage channel-wait seconds", Labels: [][2]string{stage}, Value: t.Stall[s]},
			Metric{Name: prefix + "_stage_peak_activation_bytes", Help: "per-stage live-activation high-water mark", Labels: [][2]string{stage}, Value: float64(t.PeakBytes[s])},
		)
	}
	return ms
}
