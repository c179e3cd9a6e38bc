// Package maporder is the analysistest fixture for the maporder analyzer.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

// Serialize renders a saved-units map; ranging the map directly makes the
// output order random per run.
func Serialize(saved map[string]int) string {
	var b strings.Builder
	for k, v := range saved { // want `range over map saved has an order-dependent body`
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

// CollectValues appends map values to a slice — order-dependent.
func CollectValues(saved map[string]int) []int {
	var out []int
	for _, v := range saved { // want `range over map saved has an order-dependent body`
		out = append(out, v)
	}
	return out
}

// SumFloats accumulates floats; FP addition does not commute bit-for-bit.
func SumFloats(costs map[string]float64) float64 {
	var sum float64
	for _, v := range costs { // want `range over map costs has an order-dependent body`
		sum += v
	}
	return sum
}

// SortedSerialize is the required pattern: collect keys, sort, iterate.
func SortedSerialize(saved map[string]int) string {
	keys := make([]string, 0, len(saved))
	for k := range saved { // collecting keys for the sort below: not flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, saved[k])
	}
	return b.String()
}

// Invert writes only map entries — order-insensitive, not flagged.
func Invert(saved map[string]int) map[int]string {
	out := make(map[int]string, len(saved))
	for k, v := range saved {
		out[v] = k
	}
	return out
}

// CountUnits accumulates integers — commutative, not flagged.
func CountUnits(saved map[string]int) int {
	total := 0
	for _, v := range saved {
		total += v
	}
	return total
}

// MaxUnits tracks a guarded extremum — order-insensitive, not flagged.
func MaxUnits(saved map[string]int) float64 {
	best := -1.0
	for _, v := range saved {
		if f := float64(v); f > best {
			best = f
		}
	}
	return best
}

// MergeWorkerResults folds per-worker result maps into one, appending the
// values in map-iteration order — the parallel-search merge bug the analyzer
// exists to catch: whichever worker's entries happen to range first decides
// the merged order, so two runs of the same search serialize differently.
func MergeWorkerResults(byWorker []map[string]float64) []float64 {
	var merged []float64
	for _, results := range byWorker {
		for _, v := range results { // want `range over map results has an order-dependent body`
			merged = append(merged, v)
		}
	}
	return merged
}

// MergeWorkerResultsSorted is the deterministic merge the parallel search
// uses: each worker's keys are sorted before the fold, so the merged slice is
// a pure function of the map contents. Not flagged.
func MergeWorkerResultsSorted(byWorker []map[string]float64) []float64 {
	var merged []float64
	for _, results := range byWorker {
		keys := make([]string, 0, len(results))
		for k := range results { // collecting keys for the sort below: not flagged
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			merged = append(merged, results[k])
		}
	}
	return merged
}

// MergeWorkerCounters sums per-worker counter maps into a shared tally —
// commutative integer addition keyed by the entry's own key, so worker and
// iteration order cannot show. Not flagged.
func MergeWorkerCounters(byWorker []map[string]int) map[string]int {
	merged := map[string]int{}
	for _, counters := range byWorker {
		for k, v := range counters {
			merged[k] += v
		}
	}
	return merged
}
