package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket, log-scaled latency histogram. The bucket
// bounds double from 1µs up to ~67s (powers of two), which spans everything
// the daemon times — sub-microsecond cache hits land in the first bucket,
// multi-second cold searches in the top decades — at a constant 27 counters
// per histogram. Observations are lock-free (one atomic add per sample plus
// one for the sum), so the serving hot path never contends on metrics.
//
// The bounds are fixed at compile time rather than configurable: every
// exposition of every histogram family then has an identical, deterministic
// bucket schema, which is what keeps /metrics output byte-stable.
type Histogram struct {
	// counts[i] tallies samples in bucket i (see histBounds); the final
	// extra slot is the +Inf overflow bucket.
	counts [len(histBounds) + 1]atomic.Int64
	// sumNanos accumulates the exact total of all observations.
	sumNanos atomic.Int64
}

// histBounds are the upper bounds (inclusive) of the finite buckets, in
// nanoseconds: 1µs << i for i in [0,26), topping out at 2^26 µs ≈ 67s.
var histBounds = func() [27]int64 {
	var b [27]int64
	for i := range b {
		b[i] = int64(time.Microsecond) << i
	}
	return b
}()

// Observe records one duration. Negative durations (possible under clock
// adjustment) clamp to zero so they cannot corrupt the sum or underflow the
// bucket search.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n := int64(d)
	i := 0
	for i < len(histBounds) && n > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(n)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, the
// shape the Prometheus renderer consumes.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds in nanoseconds.
	Bounds []int64
	// Counts holds per-bucket tallies; len(Bounds)+1 entries, the last
	// being the +Inf bucket.
	Counts []int64
	// SumNanos is the total of all observations.
	SumNanos int64
}

// Snapshot copies the current counters. Concurrent Observe calls may land
// between bucket reads; each sample is still counted exactly once in the
// snapshot it straddles into.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:   append([]int64(nil), histBounds[:]...),
		Counts:   make([]int64, len(histBounds)+1),
		SumNanos: h.sumNanos.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// RenderPromHistogram renders one histogram family in the Prometheus text
// exposition format (seconds, cumulative buckets, _sum/_count), matching the
// deterministic style of RenderProm: fixed bucket order, shortest-round-trip
// float formatting, one trailing newline per line.
func RenderPromHistogram(name, help string, s HistogramSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := strconv.FormatFloat(time.Duration(bound).Seconds(), 'g', -1, 64)
		fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	sum := strconv.FormatFloat(time.Duration(s.SumNanos).Seconds(), 'g', -1, 64)
	fmt.Fprintf(&b, "%s_sum %s\n", name, sum)
	fmt.Fprintf(&b, "%s_count %d\n", name, cum)
	return b.String()
}
