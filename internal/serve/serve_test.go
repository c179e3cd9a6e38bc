package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adapipe/internal/core"
	"adapipe/internal/obs"
	"adapipe/internal/request"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postPlan(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBody reads and closes a response body, failing the test at once if the
// read fails. It ends in t.Fatal, so it may only run on the test's own
// goroutine; a client goroutine calls drainBody and reports with t.Error.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := drainBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// drainBody reads and closes a response body.
func drainBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func tinyBody(pp, gbs int) string {
	return fmt.Sprintf(`{"model":"tiny","tp":1,"pp":%d,"dp":1,"seq_len":2048,"global_batch":%d}`, pp, gbs)
}

// tightBody is tinyBody under memory pressure: a longer sequence against a
// mostly-reserved device, so the search fills real knapsack tables instead of
// short-circuiting every class as "everything fits".
func tightBody(pp, gbs int) string {
	return fmt.Sprintf(`{"model":"tiny","tp":1,"pp":%d,"dp":1,"seq_len":16384,"global_batch":%d,"memory_reserve":0.92}`, pp, gbs)
}

// offlinePlanBytes reproduces what `adapipe -o plan.json` writes for the same
// request: the plan of the request-driven planner, serialized.
func offlinePlanBytes(t *testing.T, reqJSON string) []byte {
	t.Helper()
	req, err := request.ParsePlanRequest([]byte(reqJSON))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := req.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPlanRoundTripMatrix is the daemon round-trip proof: over a matrix of
// models, shapes and methods, the plan embedded in a /v1/plan response must
// be byte-identical to the plan the offline CLI path produces for the same
// config — serving adds caching, never drift.
func TestPlanRoundTripMatrix(t *testing.T) {
	_, ts := testServer(t, Config{})
	reqs := []string{
		tinyBody(2, 8),
		tinyBody(4, 8),
		`{"model":"tiny","tiny_layers":6,"tp":1,"pp":4,"dp":2,"seq_len":2048,"global_batch":16}`,
		`{"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":8,"method":"DAPPLE-Full"}`,
		`{"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":8,"method":"Even Partitioning"}`,
		`{"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":8,"method":"Chimera-Non"}`,
		`{"model":"gpt3","tp":8,"pp":8,"dp":1,"seq_len":16384,"global_batch":32}`,
	}
	for _, body := range reqs {
		resp := postPlan(t, ts, body)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, got)
		}
		if h := resp.Header.Get(headerCache); h != CacheMiss {
			t.Fatalf("%s: first request disposition %q, want %q", body, h, CacheMiss)
		}
		pr, err := request.ParsePlanResponse(got)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want := offlinePlanBytes(t, body)
		if !bytes.Equal([]byte(pr.Plan), want) {
			t.Fatalf("%s: served plan differs from offline plan:\n%s\n%s", body, pr.Plan, want)
		}
		req, _ := request.ParsePlanRequest([]byte(body))
		wantHash, _ := req.Hash()
		if pr.RequestHash != wantHash || resp.Header.Get(headerHash) != wantHash {
			t.Fatalf("%s: hash mismatch (body %s, header %s, want %s)",
				body, pr.RequestHash, resp.Header.Get(headerHash), wantHash)
		}
		// The plan must pass structural validation after the round trip.
		var plan core.Plan
		if err := json.Unmarshal(pr.Plan, &plan); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := plan.Validate(0); err != nil {
			t.Fatalf("%s: served plan invalid: %v", body, err)
		}
	}
}

// TestPlanCacheHitIsByteIdenticalAndFree pins the cache semantics: the second
// identical request returns the exact bytes of the first, marked as a hit,
// without running another search or another knapsack.
func TestPlanCacheHitIsByteIdenticalAndFree(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := tightBody(4, 8)

	cold := postPlan(t, ts, body)
	coldBytes := readBody(t, cold)
	if cold.StatusCode != http.StatusOK || cold.Header.Get(headerCache) != CacheMiss {
		t.Fatalf("cold: status %d disposition %q", cold.StatusCode, cold.Header.Get(headerCache))
	}
	after := readSamples(t, s)
	if after("searches_total") != 1 || after("cache_misses_total") != 1 {
		t.Fatalf("cold stats: %s", dumpSamples(s))
	}
	knapsacks := after("knapsack_runs_total")
	if knapsacks == 0 {
		t.Fatal("cold adaptive search reported zero knapsack runs")
	}

	warm := postPlan(t, ts, body)
	warmBytes := readBody(t, warm)
	if warm.Header.Get(headerCache) != CacheHit {
		t.Fatalf("warm disposition %q, want %q", warm.Header.Get(headerCache), CacheHit)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatalf("cached response differs from cold response:\n%s\n%s", coldBytes, warmBytes)
	}
	final := readSamples(t, s)
	if final("searches_total") != 1 {
		t.Fatalf("cache hit ran a search: %s", dumpSamples(s))
	}
	if final("knapsack_runs_total") != knapsacks {
		t.Fatalf("cache hit ran knapsacks: %d -> %d", knapsacks, final("knapsack_runs_total"))
	}
	if final("cache_hits_total") != 1 {
		t.Fatalf("cache hits = %d, want 1", final("cache_hits_total"))
	}

	// A request that differs only in representation (field order, explicit
	// defaults) is the same canonical request and also hits.
	reordered := `{"memory_reserve":0.92,"global_batch":8,"seq_len":16384,"dp":1,"pp":4,"tp":1,"model":"tiny","method":"AdaPipe","micro_batch":1}`
	rep := postPlan(t, ts, reordered)
	repBytes := readBody(t, rep)
	if rep.Header.Get(headerCache) != CacheHit || !bytes.Equal(repBytes, coldBytes) {
		t.Fatalf("representation-variant request missed the cache (disposition %q)", rep.Header.Get(headerCache))
	}
}

// TestConcurrentIdenticalRequestsSearchOnce is the coalescing proof at the
// HTTP layer with the real planner: 8 concurrent identical requests perform
// exactly one search and all get the same bytes.
func TestConcurrentIdenticalRequestsSearchOnce(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 8})
	body := tinyBody(4, 16)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			bodies[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	stats := readSamples(t, s)
	if stats("searches_total") != 1 {
		t.Fatalf("%d concurrent identical requests ran %d searches, want exactly 1", n, stats("searches_total"))
	}
	if stats("cache_hits_total")+stats("coalesced_total") != n-1 {
		t.Fatalf("hit+coalesced = %d+%d, want %d in total", stats("cache_hits_total"), stats("coalesced_total"), n-1)
	}
}

// TestCoalescingSharesOneScriptedSearch drives the singleflight path
// deterministically: a scripted search blocks until all 8 requests are
// waiting on it, so every follower must coalesce (none can be a late cache
// hit), and the scripted planner runs exactly once.
func TestCoalescingSharesOneScriptedSearch(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 8})
	const n = 8
	var calls int
	var mu sync.Mutex
	waiting := make(chan struct{}, n)
	proceed := make(chan struct{})
	realPlan := s.planFn
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-proceed
		return realPlan(ctx, req)
	}

	body := tinyBody(2, 8)
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			waiting <- struct{}{}
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			results[i] = resp.Header.Get(headerCache)
		}()
	}
	// Wait until every client goroutine is at least launched, then give the
	// HTTP layer a moment to park all of them inside the handler before
	// releasing the scripted search.
	for i := 0; i < n; i++ {
		<-waiting
	}
	time.Sleep(50 * time.Millisecond)
	close(proceed)
	wg.Wait()
	if t.Failed() {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("scripted search ran %d times, want 1", calls)
	}
	var miss, coalesced int
	for _, r := range results {
		switch r {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("dispositions: %v (want 1 miss, %d coalesced)", results, n-1)
	}
	if readSamples(t, s)("coalesced_total") != int64(n-1) {
		t.Fatalf("coalesced counter = %d, want %d", readSamples(t, s)("coalesced_total"), n-1)
	}
}

// TestRequestTimeoutCancelsSearch proves the deadline reaches the search: a
// scripted search that honours ctx returns 504 promptly under a 30ms budget.
func TestRequestTimeoutCancelsSearch(t *testing.T) {
	s, ts := testServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	start := time.Now()
	resp := postPlan(t, ts, tinyBody(2, 8))
	readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if readSamples(t, s)("errors_total") == 0 {
		t.Fatal("timeout not counted as an error")
	}
}

// TestShutdownCancelsInFlightSearch: Close() must unwind a running search
// through its context and answer 503.
func TestShutdownCancelsInFlightSearch(t *testing.T) {
	s, ts := testServer(t, Config{})
	entered := make(chan struct{})
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tinyBody(2, 8)))
		if err == nil {
			done <- resp
		} else {
			t.Error(err)
			close(done)
		}
	}()
	<-entered
	s.Close()
	select {
	case resp := <-done:
		if resp == nil {
			return
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not unblock the in-flight request")
	}
}

// TestAdmissionGateRejectsWhenSaturated: with one slot held by a scripted
// search, a second *distinct* request must time out in the admission queue
// with 503 instead of starting a concurrent search.
func TestAdmissionGateRejectsWhenSaturated(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 1, RequestTimeout: 80 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		// Hold the slot until the test releases it — NOT until ctx expires.
		// The holder's deadline always fires just before the queued request's
		// (it was admitted first), so releasing on ctx.Done would free the
		// slot inside the second request's admission window and let it race
		// between admission and rejection. Blocking on release alone keeps
		// the slot occupied for the whole window, making the 503
		// deterministic. The timeout is a hang backstop only.
		close(entered)
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil, context.DeadlineExceeded
	}
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tinyBody(2, 8)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	resp := postPlan(t, ts, tinyBody(4, 8)) // different hash: no coalescing
	readBody(t, resp)
	close(release)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if readSamples(t, s)("rejected_total") != 1 {
		t.Fatalf("rejected = %d, want 1", readSamples(t, s)("rejected_total"))
	}
}

func TestLRUEvictionAtHTTPLayer(t *testing.T) {
	s, ts := testServer(t, Config{CacheSize: 1})
	a, b := tinyBody(2, 8), tinyBody(4, 8)
	readBody(t, postPlan(t, ts, a))
	readBody(t, postPlan(t, ts, b)) // evicts a
	resp := postPlan(t, ts, a)
	readBody(t, resp)
	if resp.Header.Get(headerCache) != CacheMiss {
		t.Fatalf("evicted entry served as %q", resp.Header.Get(headerCache))
	}
	// b evicted a, then re-caching a evicted b: two evictions, one entry.
	st := readSamples(t, s)
	if st("cache_evictions_total") != 2 || st("cache_entries") != 1 {
		t.Fatalf("evictions=%d entries=%d, want 2 and 1", st("cache_evictions_total"), st("cache_entries"))
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := tinyBody(4, 8)
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr request.SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Version != request.Version || sr.Schedule != "1f1b" || sr.IterSec <= 0 || len(sr.PeakBytes) != 4 {
		t.Fatalf("unexpected simulate response: %+v", sr)
	}
	requireSearchSpan(t, ts, resp)
	// The simulated outcome must agree with the offline evaluation path.
	req, _ := request.ParsePlanRequest([]byte(body))
	want, _ := req.Evaluate(context.Background())
	if sr.IterSec != want.Sim.IterTime {
		t.Fatalf("served iter %g, offline iter %g", sr.IterSec, want.Sim.IterTime)
	}
	if readSamples(t, s)("requests_total{endpoint=\"simulate\"}") != 1 {
		t.Fatalf("simulate requests = %d, want 1", readSamples(t, s)("requests_total{endpoint=\"simulate\"}"))
	}
}

func TestBadRequestsAreRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"model":"bert","tp":1,"pp":2,"dp":1,"seq_len":128,"global_batch":4}`, http.StatusBadRequest},
		{`{"model":"tiny","tpp":1}`, http.StatusBadRequest},
		{`{"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":7,"micro_batch":2}`, http.StatusBadRequest},
		{`{"version":9,"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":8}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postPlan(t, ts, c.body)
		data := readBody(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
		e, err := request.ParseErrorResponse(data)
		if err != nil {
			t.Errorf("%s: error body not machine readable: %s", c.body, data)
		} else if e.Err.Code != request.ErrCodeInvalidRequest || e.Err.Status != c.want {
			t.Errorf("%s: error envelope %+v, want code %q status %d", c.body, e.Err, request.ErrCodeInvalidRequest, c.want)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
	if readSamples(t, s)("errors_total") == 0 {
		t.Fatal("errors counter untouched")
	}
	if readSamples(t, s)("searches_total") != 0 {
		t.Fatal("bad requests ran searches")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	readBody(t, postPlan(t, ts, tinyBody(2, 8)))
	readBody(t, postPlan(t, ts, tinyBody(2, 8)))
	metrics := scrapeMetrics(t, ts)
	for _, want := range []string{
		`adapipe_serve_requests_total{endpoint="plan"} 2`,
		"adapipe_serve_cache_hits_total 1",
		"adapipe_serve_cache_misses_total 1",
		"adapipe_serve_searches_total 1",
		"adapipe_serve_knapsack_runs_total",
		"adapipe_serve_in_flight 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// readSamples snapshots the server's exposition table — the rows /metrics
// renders — and returns a reader of one sample by its name without the
// adapipe_serve_ prefix, a labelled row as name{key="value"}. An unknown name
// fails the test.
func readSamples(t *testing.T, s *Server) func(name string) int64 {
	t.Helper()
	vals := map[string]float64{}
	for _, m := range s.samples() {
		key := strings.TrimPrefix(m.Name, "adapipe_serve_")
		for _, l := range m.Labels {
			key += fmt.Sprintf("{%s=%q}", l[0], l[1])
		}
		vals[key] = m.Value
	}
	return func(name string) int64 {
		t.Helper()
		v, ok := vals[name]
		if !ok {
			t.Fatalf("no /metrics sample named %q", name)
		}
		return int64(v)
	}
}

// dumpSamples renders the exposition table for a failure message.
func dumpSamples(s *Server) string { return obs.RenderProm(s.samples()) }
