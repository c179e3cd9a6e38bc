package obs

import (
	"strings"
	"testing"

	"adapipe/internal/sim"
)

func TestRenderPromFormat(t *testing.T) {
	out := RenderProm([]Metric{
		{Name: "x_total", Help: "an example", Value: 3},
		{Name: "x_busy", Help: "per-device", Labels: [][2]string{{"device", "0"}}, Value: 1.5},
		{Name: "x_busy", Help: "per-device", Labels: [][2]string{{"device", "1"}}, Value: 2.5},
	})
	want := `# HELP x_total an example
# TYPE x_total gauge
x_total 3
# HELP x_busy per-device
# TYPE x_busy gauge
x_busy{device="0"} 1.5
x_busy{device="1"} 2.5
`
	if out != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", out, want)
	}
}

func TestRenderPromDeterministic(t *testing.T) {
	ms := []Metric{
		{Name: "a", Help: "first", Value: 1},
		{Name: "b", Labels: [][2]string{{"k", "v"}, {"k2", "v2"}}, Value: 2},
		{Name: "a", Help: "first", Value: 3},
	}
	first := RenderProm(ms)
	for i := 0; i < 10; i++ {
		if got := RenderProm(ms); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Samples sharing a name group under one header.
	if strings.Count(first, "# TYPE a gauge") != 1 {
		t.Errorf("HELP/TYPE header repeated:\n%s", first)
	}
	if !strings.Contains(first, `b{k="v",k2="v2"} 2`) {
		t.Errorf("multi-label sample malformed:\n%s", first)
	}
}

func TestRenderPromEscapesHelp(t *testing.T) {
	out := RenderProm([]Metric{{Name: "m", Help: "line\nbreak \\ slash", Value: 0}})
	if !strings.Contains(out, `line\nbreak \\ slash`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
}

func TestMetricFamilies(t *testing.T) {
	res := sim.Result{
		IterTime: 2,
		Busy:     []float64{1.5, 1.2},
		Bubble:   []float64{0.5, 0.8},
		PeakMem:  []int64{100, 200},
	}
	simOut := RenderProm(SimMetrics("p", res))
	for _, want := range []string{"p_iter_seconds 2", `p_device_busy_seconds{device="1"} 1.2`, `p_device_peak_bytes{device="0"} 100`} {
		if !strings.Contains(simOut, want) {
			t.Errorf("SimMetrics output missing %q:\n%s", want, simOut)
		}
	}

	tr := &Trace{
		WallTime:  2,
		Busy:      []float64{1.5, 1.2},
		Stall:     []float64{0.3, 0.6},
		PeakBytes: []int64{64, 32},
	}
	trOut := RenderProm(TraceMetrics("t", tr))
	for _, want := range []string{"t_wall_seconds 2", `t_stage_stall_seconds{stage="1"} 0.6`, `t_stage_peak_activation_bytes{stage="0"} 64`} {
		if !strings.Contains(trOut, want) {
			t.Errorf("TraceMetrics output missing %q:\n%s", want, trOut)
		}
	}
}
