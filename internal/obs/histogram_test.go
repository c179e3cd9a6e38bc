package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int // index the sample must land in
	}{
		{0, 0},                       // zero
		{-time.Second, 0},            // negative clamps to zero
		{time.Nanosecond, 0},         // sub-bucket
		{time.Microsecond, 0},        // exactly the first bound (inclusive)
		{time.Microsecond + 1, 1},    // just past the first bound
		{2 * time.Microsecond, 1},    // second bound
		{time.Millisecond, 10},       // 1ms = 2^10 µs
		{time.Second, 20},            // 1s  = a hair under 2^20 µs
		{67 * time.Second, 26},       // top finite bucket (2^26 µs ≈ 67.1s)
		{time.Hour, len(histBounds)}, // overflow → +Inf
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	s := h.Snapshot()
	want := make([]int64, len(histBounds)+1)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	// The negative observation contributed 0 to the sum.
	var wantSum int64
	for _, c := range cases {
		if c.d > 0 {
			wantSum += int64(c.d)
		}
	}
	if s.SumNanos != wantSum {
		t.Errorf("SumNanos = %d, want %d", s.SumNanos, wantSum)
	}
	if n := count(s); n != int64(len(cases)) {
		t.Errorf("count = %d, want %d", n, len(cases))
	}
}

// count is the total number of observations in s.
func count(s HistogramSnapshot) int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if n := count(s); n != 8000 {
		t.Errorf("count = %d, want 8000", n)
	}
	if s.SumNanos != 8000*int64(time.Millisecond) {
		t.Errorf("SumNanos = %d, want %d", s.SumNanos, 8000*int64(time.Millisecond))
	}
}

func TestRenderPromHistogramFormat(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0 (le=1e-06)
	h.Observe(3 * time.Microsecond)  // bucket 2 (le=4e-06)
	h.Observe(2 * time.Hour)         // +Inf
	out := RenderPromHistogram("adapipe_serve_request_seconds", "Request latency.", h.Snapshot())

	for _, want := range []string{
		"# HELP adapipe_serve_request_seconds Request latency.\n",
		"# TYPE adapipe_serve_request_seconds histogram\n",
		`adapipe_serve_request_seconds_bucket{le="1e-06"} 1` + "\n",
		`adapipe_serve_request_seconds_bucket{le="2e-06"} 1` + "\n",
		`adapipe_serve_request_seconds_bucket{le="4e-06"} 2` + "\n",
		`adapipe_serve_request_seconds_bucket{le="+Inf"} 3` + "\n",
		"adapipe_serve_request_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: every le line's value must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts are not cumulative at %q", line)
		}
		last = v
	}
}

// TestRenderPromHistogramDeterministic locks the exposition bytes: two
// renders of one snapshot, and renders of two equal histograms, must match
// exactly — /metrics output may differ only where the measurements do.
func TestRenderPromHistogramDeterministic(t *testing.T) {
	var a, b Histogram
	for _, d := range []time.Duration{0, time.Microsecond, time.Millisecond, time.Second, time.Hour} {
		a.Observe(d)
		b.Observe(d)
	}
	r1 := RenderPromHistogram("m", "h", a.Snapshot())
	r2 := RenderPromHistogram("m", "h", a.Snapshot())
	r3 := RenderPromHistogram("m", "h", b.Snapshot())
	if r1 != r2 || r1 != r3 {
		t.Error("equal histograms rendered different expositions")
	}
	if strings.Count(r1, "_bucket{") != len(histBounds)+1 {
		t.Errorf("rendered %d bucket lines, want %d", strings.Count(r1, "_bucket{"), len(histBounds)+1)
	}
}
