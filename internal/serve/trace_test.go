package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic obs.Clock advancing a fixed step per reading,
// so trace spans and histogram observations are reproducible in tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// chromeDoc is the subset of Chrome trace-event JSON the tests inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

func getTraceDoc(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

// requireSearchSpan fails unless the trace resp points to holds a search.*
// span: proof that the endpoint handed its ctx, and the tracer riding on it,
// down into the planner's search.
func requireSearchSpan(t *testing.T, ts *httptest.Server, resp *http.Response) {
	t.Helper()
	_, body := getTraceDoc(t, ts, resp.Header.Get(headerTrace))
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "search.") {
			return
		}
	}
	t.Fatalf("%s trace holds no search.* span: its ctx did not reach the search:\n%s", resp.Request.URL.Path, body)
}

// TestPlanTraceEndToEnd is the tentpole proof at the unit level: a cold
// /v1/plan returns a trace id, the stored trace decomposes the request into
// its serving phases AND reaches down through the search into the knapsack
// solvers, and repeated exports are byte-identical.
func TestPlanTraceEndToEnd(t *testing.T) {
	clk := newTestClock()
	_, ts := testServer(t, Config{Clock: clk.Now})

	resp := postPlan(t, ts, tinyBody(2, 8))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}
	id := resp.Header.Get(headerTrace)
	if id != "t000001" {
		t.Fatalf("X-Adapipe-Trace = %q, want t000001 (first id of the sequence)", id)
	}

	tresp, body := getTraceDoc(t, ts, id)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/%s status %d: %s", id, tresp.StatusCode, body)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}

	roots := 0
	cats := map[string]int{}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has ph %q, want X", ev.Name, ev.Ph)
		}
		cats[ev.Cat]++
		if ev.Cat == "request" {
			roots++
			if ev.Dur <= 0 {
				t.Errorf("request span duration = %g", ev.Dur)
			}
		}
		if ev.Cat == "phase" {
			phases[ev.Name] = true
		}
	}
	if roots != 1 {
		t.Errorf("trace holds %d request spans, want 1", roots)
	}
	for _, want := range []string{"decode", "cache", "queue", "search", "encode"} {
		if !phases[want] {
			t.Errorf("phase span %q missing; trace:\n%s", want, body)
		}
	}
	// The tracer rode the context down: planner sub-phases and at least one
	// knapsack solve must appear.
	if cats["search"] == 0 {
		t.Error("no search-category spans: tracer did not reach core.PlanContext")
	}
	if cats["solve"] == 0 {
		t.Error("no solve-category spans: tracer did not reach recompute.Solver")
	}

	// Byte-determinism across exports of one stored trace.
	_, again := getTraceDoc(t, ts, id)
	if string(body) != string(again) {
		t.Error("two exports of one trace differ")
	}
}

// TestTraceBytesUnchanged holds /v1/trace/{id} byte for byte against the body
// captured at the commit before the tracer lost its tid parameter and the
// ring became a memo.Cache (10c9b18): a cold tightBody(4,8) plan under the
// fake clock, so every offset is fixed.
func TestTraceBytesUnchanged(t *testing.T) {
	_, ts := testServer(t, Config{Clock: newTestClock().Now})
	resp := postPlan(t, ts, tightBody(4, 8))
	readBody(t, resp)
	_, got := getTraceDoc(t, ts, resp.Header.Get(headerTrace))
	path := filepath.Join("testdata", "trace_planned.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/v1/trace differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestTraceCacheHitPhases: a cache hit's trace tells the short story —
// decode and cache lookup, no queue/search/encode.
func TestTraceCacheHitPhases(t *testing.T) {
	clk := newTestClock()
	_, ts := testServer(t, Config{Clock: clk.Now})
	readBody(t, postPlan(t, ts, tinyBody(2, 8)))

	resp := postPlan(t, ts, tinyBody(2, 8))
	readBody(t, resp)
	if d := resp.Header.Get(headerCache); d != CacheHit {
		t.Fatalf("repeat disposition = %q, want hit", d)
	}
	id := resp.Header.Get(headerTrace)
	tresp, body := getTraceDoc(t, ts, id)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/%s status %d", id, tresp.StatusCode)
	}
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"request", "decode", "cache"} {
		if !seen[want] {
			t.Errorf("hit trace missing %q span:\n%s", want, body)
		}
	}
	for _, absent := range []string{"search", "queue", "encode", "knapsack"} {
		if seen[absent] {
			t.Errorf("hit trace contains %q span — a cache hit must do no search work:\n%s", absent, body)
		}
	}
}

func TestTraceUnknownID(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, id := range []string{"t999999", ""} {
		resp, body := getTraceDoc(t, ts, id)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/v1/trace/%q status %d, want 404 (%s)", id, resp.StatusCode, body)
		}
	}
}

func TestTraceMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/trace/t000001", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/trace status %d, want 405", resp.StatusCode)
	}
}

// TestTraceRingEviction: the ring keeps the most recent TraceBuffer traces;
// older ids 404.
func TestTraceRingEviction(t *testing.T) {
	_, ts := testServer(t, Config{TraceBuffer: 1})
	r1 := postPlan(t, ts, tinyBody(2, 8))
	readBody(t, r1)
	id1 := r1.Header.Get(headerTrace)
	r2 := postPlan(t, ts, tinyBody(4, 8))
	readBody(t, r2)
	id2 := r2.Header.Get(headerTrace)

	if resp, _ := getTraceDoc(t, ts, id1); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted trace %s still served (status %d)", id1, resp.StatusCode)
	}
	if resp, _ := getTraceDoc(t, ts, id2); resp.StatusCode != http.StatusOK {
		t.Errorf("latest trace %s not served (status %d)", id2, resp.StatusCode)
	}
}

// TestTracingDisabled: TraceBuffer < 0 selects the nil-tracer hot path — no
// header, nothing stored, requests still served.
func TestTracingDisabled(t *testing.T) {
	_, ts := testServer(t, Config{TraceBuffer: -1})
	resp := postPlan(t, ts, tinyBody(2, 8))
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d with tracing disabled", resp.StatusCode)
	}
	if h := resp.Header.Get(headerTrace); h != "" {
		t.Errorf("X-Adapipe-Trace = %q with tracing disabled, want absent", h)
	}
	if tresp, _ := getTraceDoc(t, ts, "t000001"); tresp.StatusCode != http.StatusNotFound {
		t.Errorf("trace stored despite disabled tracing (status %d)", tresp.StatusCode)
	}
}

// TestMetricsHistograms: after one plan request /metrics carries all four
// latency histogram families, rendered deterministically.
func TestMetricsHistograms(t *testing.T) {
	clk := newTestClock()
	_, ts := testServer(t, Config{Clock: clk.Now})
	readBody(t, postPlan(t, ts, tinyBody(2, 8)))

	body := scrapeMetrics(t, ts)
	for _, fam := range []string{
		"adapipe_serve_request_seconds",
		"adapipe_serve_search_seconds",
		"adapipe_serve_queue_seconds",
		"adapipe_serve_cache_lookup_seconds",
	} {
		for _, suffix := range []string{"_bucket{le=\"+Inf\"}", "_sum", "_count"} {
			if !strings.Contains(body, fam+suffix) {
				t.Errorf("/metrics missing %s%s", fam, suffix)
			}
		}
		if !strings.Contains(body, "# TYPE "+fam+" histogram") {
			t.Errorf("/metrics missing TYPE line for %s", fam)
		}
	}
	if !strings.Contains(body, "adapipe_serve_request_seconds_count 1") {
		t.Errorf("request histogram did not record the request:\n%s", body)
	}
}

// TestRequestLogging: one structured record per request, carrying the trace
// id as the join key to /v1/trace/{id}.
func TestRequestLogging(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	_, ts := testServer(t, Config{Logger: logger})
	readBody(t, postPlan(t, ts, tinyBody(2, 8)))

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		`msg=request`,
		`method=POST`,
		`path=/v1/plan`,
		`trace=t000001`,
		`cache=miss`,
		`status=200`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %q:\n%s", want, out)
		}
	}
}

// lockedWriter serializes handler writes; httptest handlers run on their own
// goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
