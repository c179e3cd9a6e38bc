package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// exactTol is the relative tolerance of metrics that must repeat exactly:
// values computed by the cost model or counted by the planner, not timed.
const exactTol = 1e-9

// exactRepeat reports whether a metric outside end_to_end is a deterministic
// count or model output, which two runs of one commit must agree on.
func exactRepeat(name string) bool {
	return name == "adapipe_speedup_x" || name == "baseline.adapipe_speedup_x" ||
		(strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_per_search") && !strings.Contains(name, "alloc"))
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// relDiff is |b-a| as a share of |a| (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// compareFiles prints one row per end-to-end metric and workload — both
// values and their ratio, b over a — and returns non-zero when any differs by
// more than its bound, or when an exact-repeat metric differs at all.
func compareFiles(spec *benchmarkSpec, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		return fail(err)
	}
	bad := 0
	row := func(workload, name string, va, vb, bound float64) {
		verdict := "ok"
		if relDiff(va, vb) > bound {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Printf("%-14s %-32s a=%-14.6g b=%-14.6g b/a=%-8.4f bound=%-6g %s\n", workload, name, va, vb, ratio(vb, va), bound, verdict)
	}
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-14s missing from one of the files\n", w.Name)
			bad++
			continue
		}
		for _, d := range spec.EndToEnd {
			row(w.Name, d.Name, ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value, d.Bound)
		}
		for name, m := range ra.Extra {
			if exactRepeat(name) {
				row(w.Name, name, m.Value, rb.Extra[name].Value, exactTol)
			}
		}
		for _, d := range spec.PerLayer {
			if exactRepeat(d.Name) {
				row(w.Name, d.Name, ra.PerLayer[d.Name].Value, rb.PerLayer[d.Name].Value, exactTol)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d metrics differ by more than their bound\n", bad)
		return 1
	}
	fmt.Println("the two result files agree within the bounds of BENCHMARK.json")
	return 0
}
