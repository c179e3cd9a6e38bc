package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// The harness is run from the repo root (that is where BENCHMARK.json is).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// firstOps renders the first n operations of every lane of a daemon script.
func firstOps(t *testing.T, workload string, seed uint64, n int) []byte {
	t.Helper()
	var hot *hotSet
	if workload == wlPlanHot {
		hot = newHotSet(seed, hotRequests)
	}
	var out bytes.Buffer
	for lane, s := range newScripts(workload, seed, hot) {
		for i := 0; i < n; i++ {
			o, ok := s.next()
			if !ok {
				t.Fatalf("%s lane %d ran out of operations after %d", workload, lane, i)
			}
			out.WriteString(o.kind.path())
			out.WriteByte(' ')
			out.Write(o.body)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestScriptsAreDeterministic(t *testing.T) {
	for _, w := range []string{wlPlanCold, wlPlanHot, wlReplanSweep} {
		a, b, c := firstOps(t, w, 1, 300), firstOps(t, w, 1, 300), firstOps(t, w, 2, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different scripts", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w)
		}
	}
}

// plan_cold's premise is that no two requests of a run share a cost family.
func TestColdScriptNeverRepeatsAFamily(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, s := range newScripts(wlPlanCold, 7, nil) {
		for i := 0; i < 800; i++ {
			o, ok := s.next()
			if !ok {
				t.Fatalf("script ran out after %d operations", i)
			}
			shapeIdx := -1
			for si, sh := range shapes {
				if sh.model == o.req.Model && sh.cluster == o.req.Cluster && sh.tp == o.req.TP && sh.pp == o.req.PP {
					shapeIdx = si
				}
			}
			key := [2]int{shapeIdx, o.req.SeqLen}
			if shapeIdx < 0 || seen[key] {
				t.Fatalf("operation %d repeats (shape %d, seq_len %d)", i, shapeIdx, o.req.SeqLen)
			}
			seen[key] = true
			limit := shapes[shapeIdx].maxSeq
			if o.kind == opSimulate {
				limit = shapes[shapeIdx].simMax
			}
			if o.req.SeqLen < minSeq || o.req.SeqLen > limit || o.req.GlobalBatch < o.req.PP {
				t.Fatalf("operation %d leaves the verified table: %+v", i, o.req)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Layer: "harness", Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Layer: "core", Name: "search", Start: 10 * ms, End: 90 * ms, Parent: 0},
		{Layer: "coststore", Name: "get", Start: 20 * ms, End: 50 * ms, Parent: 1},
		{Layer: "core", Name: "solve", Start: 25 * ms, End: 45 * ms, Parent: 2},
		{Layer: "coststore", Name: "get", Start: 60 * ms, End: 70 * ms, Parent: 1},
	}
	totals := selfTimes(spans)
	for key, want := range map[string]spanTotal{
		"harness.op":    {Count: 1, Total: 100 * ms, Self: 20 * ms},
		"core.search":   {Count: 1, Total: 80 * ms, Self: 40 * ms},
		"coststore.get": {Count: 2, Total: 40 * ms, Self: 20 * ms},
		"core.solve":    {Count: 1, Total: 20 * ms, Self: 20 * ms},
	} {
		got := totals[key]
		if got == nil || got.Count != want.Count || got.Total != want.Total || got.Self != want.Self {
			t.Errorf("%s = %+v, want count %d total %v self %v", key, got, want.Count, want.Total, want.Self)
		}
	}
	// Self times tile the root: nothing is counted twice or lost.
	var sum time.Duration
	for _, st := range totals {
		sum += st.Self
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestTracerNestsAndClosesAbandonedSpans(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	root := tr.begin("harness", "op")
	tr.begin("core", "search") // abandoned by an error return
	tr.end(root)
	if len(tr.stack) != 0 {
		t.Fatalf("stack not empty after closing the root: %v", tr.stack)
	}
	if tr.spans[1].Parent != 0 || tr.spans[1].End == 0 || tr.spans[1].Op != 0 {
		t.Errorf("abandoned child = %+v, want parent 0, closed, op 0", tr.spans[1])
	}
	var none *tracer
	none.in("core", "search", func() {}) // a nil tracer records nothing and must not panic
}

// TestShortPassEmitsEveryMetric is the smoke pass of the whole harness: every
// workload, end-to-end and traced, against an in-process server, must produce
// every metric BENCHMARK.json names as a finite number and fail no check.
func TestShortPassEmitsEveryMetric(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	ctx := context.Background()
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		h := &harness{
			spec: spec, seed: 3, seconds: 0.5, short: true, launch: inProcessLauncher,
			scratch: t.TempDir(), outDir: t.TempDir(), observed: goldenFile{},
		}
		e2e, err := h.endToEnd(ctx, w.Name)
		if err != nil {
			t.Fatalf("%s end-to-end: %v", w.Name, err)
		}
		tr, err := h.traced(ctx, w.Name)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if e2e.Failed+tr.Failed > 0 || e2e.Attempted == 0 || tr.Attempted == 0 {
			t.Errorf("%s: attempted %d+%d, failed %d+%d: %v %v", w.Name, e2e.Attempted, tr.Attempted, e2e.Failed, tr.Failed, e2e.Errors, tr.Errors)
		}
		for _, d := range spec.EndToEnd {
			m, ok := e2e.EndToEnd[d.Name]
			if !ok || m.Unit == "" || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a finite value > 0 with a unit", w.Name, d.Name, m)
			}
		}
		for _, d := range spec.PerLayer {
			m, ok := tr.PerLayer[d.Name]
			if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v, want a finite value with a unit", w.Name, d.Name, m)
			}
		}
		if _, err := os.Stat(tr.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
	}
}

func TestCompareFlagsADifferenceBeyondTheBound(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) string {
		r := resultFile{Workloads: map[string]*workloadResult{}}
		for _, w := range spec.Workloads {
			wr := &workloadResult{EndToEnd: map[string]measured{}, Extra: map[string]measured{"adapipe_speedup_x": {Value: 1.37}}}
			for _, d := range spec.EndToEnd {
				wr.EndToEnd[d.Name] = measured{Value: 10 * scale, Unit: d.Unit}
			}
			r.Workloads[w.Name] = wr
		}
		path := t.TempDir() + "/r.json"
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1)
	if code := compareFiles(spec, base, mk(1.01)); code != 0 {
		t.Errorf("a 1%% difference was flagged (exit %d)", code)
	}
	if code := compareFiles(spec, base, mk(1.5)); code == 0 {
		t.Errorf("a 50%% difference passed")
	}
}
