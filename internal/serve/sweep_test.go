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
	"adapipe/internal/request"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func sweepBody(base string, axes string) string {
	return fmt.Sprintf(`{"base":%s,"axes":%s}`, base, axes)
}

// TestSweepSinglePointMatchesPlan: a one-point sweep must carry exactly the
// plan bytes /v1/plan returns for the same request — and because sweep points
// feed the shared response cache, the follow-up /v1/plan is a cache hit.
func TestSweepSinglePointMatchesPlan(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := tinyBody(4, 8)

	resp := postSweep(t, ts, sweepBody(base, `{}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || sr.Stats.Points != 1 || sr.Stats.Planned != 1 {
		t.Fatalf("axis-free sweep: %+v", sr.Stats)
	}
	if len(sr.Ranking) != 1 || sr.Ranking[0] != 0 {
		t.Fatalf("ranking %v, want [0]", sr.Ranking)
	}
	want := offlinePlanBytes(t, base)
	if !bytes.Equal([]byte(sr.Points[0].Plan), want) {
		t.Fatalf("sweep point plan differs from offline plan:\n%s\n%s", sr.Points[0].Plan, want)
	}

	// The point's response is now in the shared cache: /v1/plan hits.
	presp := postPlan(t, ts, base)
	pdata := readBody(t, presp)
	if presp.Header.Get(headerCache) != CacheHit {
		t.Fatalf("/v1/plan after sweep: disposition %q, want %q", presp.Header.Get(headerCache), CacheHit)
	}
	pr, err := request.ParsePlanResponse(pdata)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(pr.Plan), []byte(sr.Points[0].Plan)) {
		t.Fatal("/v1/plan bytes differ from the sweep point's plan")
	}
}

// TestSweepAmortizesKnapsacksOverStore is the serving-layer reuse proof: a
// global-batch sweep shares one cost family, so after a cold single plan the
// whole grid adds almost no knapsack work and the extra points are answered by
// the shared cost store.
func TestSweepAmortizesKnapsacksOverStore(t *testing.T) {
	s, ts := testServer(t, Config{})

	readBody(t, postPlan(t, ts, tightBody(4, 8)))
	cold := readSamples(t, s)
	if cold("knapsack_runs_total") == 0 {
		t.Fatal("cold plan reported zero knapsack runs")
	}
	if cold("cost_store_misses_total") == 0 {
		t.Fatal("cold plan did not populate the cost store")
	}

	resp := postSweep(t, ts, sweepBody(tightBody(4, 8), `{"global_batch":[8,16,24]}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Points != 3 || sr.Stats.Cached != 1 || sr.Stats.Planned != 2 || sr.Stats.Failed != 0 {
		t.Fatalf("sweep stats %+v, want 3 points = 1 cached + 2 planned", sr.Stats)
	}
	warm := readSamples(t, s)
	perPoint := cold("knapsack_runs_total")
	if delta := warm("knapsack_runs_total") - cold("knapsack_runs_total"); delta >= 2*perPoint {
		t.Fatalf("sweep added %d knapsack runs, want < %d (2 fresh points × %d cold runs, amortized by the store)",
			delta, 2*perPoint, perPoint)
	}
	if warm("cost_store_hits_total") == 0 {
		t.Fatal("sweep recorded no cost-store hits")
	}
	if warm("sweep_requests_total") != 1 || warm("sweep_points_total") != 3 || warm("sweep_points_planned_total") != 2 || warm("sweep_points_cached_total") != 1 {
		t.Fatalf("daemon sweep counters %s inconsistent with one 3-point sweep", dumpSamples(s))
	}
	// Every grid point matches its offline plan byte for byte.
	for i, gb := range []int{8, 16, 24} {
		want := offlinePlanBytes(t, tightBody(4, gb))
		if !bytes.Equal([]byte(sr.Points[i].Plan), want) {
			t.Fatalf("point %d (gb=%d) differs from offline plan", i, gb)
		}
	}
}

// TestSweepEmptyAxisRejected: an explicitly empty axis is an invalid_request,
// not an empty success.
func TestSweepEmptyAxisRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp := postSweep(t, ts, sweepBody(tinyBody(4, 8), `{"tp":[]}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	e, err := request.ParseErrorResponse(data)
	if err != nil {
		t.Fatalf("error body not an envelope: %s", data)
	}
	if e.Err.Code != request.ErrCodeInvalidRequest || !strings.Contains(e.Err.Message, `axis "tp" is empty`) {
		t.Fatalf("envelope %+v", e.Err)
	}
	if readSamples(t, s)("searches_total") != 0 {
		t.Fatal("rejected sweep ran a search")
	}
}

// TestSweepDuplicatePointsPlannedOnce: duplicate grid values collapse to one
// search; the copies are deduped, not re-planned.
func TestSweepDuplicatePointsPlannedOnce(t *testing.T) {
	s, ts := testServer(t, Config{})
	var mu sync.Mutex
	calls := 0
	realPlan := s.planFn
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return realPlan(ctx, req)
	}

	resp := postSweep(t, ts, sweepBody(tinyBody(4, 8), `{"global_batch":[16,16,16]}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("3 identical grid points ran %d searches, want 1", got)
	}
	if sr.Stats.Planned != 1 || sr.Stats.Deduped != 2 || sr.Stats.Failed != 0 {
		t.Fatalf("stats %+v, want planned 1, deduped 2", sr.Stats)
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal([]byte(sr.Points[0].Plan), []byte(sr.Points[i].Plan)) {
			t.Fatalf("deduped point %d carries different plan bytes", i)
		}
		if sr.Points[i].RequestHash != sr.Points[0].RequestHash {
			t.Fatalf("deduped point %d carries a different hash", i)
		}
	}
	if len(sr.Ranking) != 3 {
		t.Fatalf("ranking %v, want all 3 points feasible", sr.Ranking)
	}
}

// TestSweepPartialFailure: one point that fails to normalize gets a per-point
// canonical error; the rest of the grid still plans and ranks.
func TestSweepPartialFailure(t *testing.T) {
	_, ts := testServer(t, Config{})
	// micro_batch 3 does not divide global_batch 8: that point fails
	// normalization, micro_batch 1 stays valid.
	resp := postSweep(t, ts, sweepBody(tinyBody(4, 8), `{"micro_batch":[1,3]}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with a per-point error: %s", resp.StatusCode, data)
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Points != 2 || sr.Stats.Planned != 1 || sr.Stats.Failed != 1 {
		t.Fatalf("stats %+v, want 1 planned + 1 failed", sr.Stats)
	}
	if sr.Points[0].Error != nil || len(sr.Points[0].Plan) == 0 {
		t.Fatalf("valid point did not plan: %+v", sr.Points[0])
	}
	bad := sr.Points[1]
	if bad.Error == nil || bad.Error.Code != request.ErrCodeInvalidRequest || bad.Error.Status != http.StatusBadRequest {
		t.Fatalf("failed point error %+v, want invalid_request 400", bad.Error)
	}
	if len(bad.Plan) != 0 {
		t.Fatal("failed point carries a plan")
	}
	if len(sr.Ranking) != 1 || sr.Ranking[0] != 0 {
		t.Fatalf("ranking %v, want only the feasible point", sr.Ranking)
	}
}

// TestSweepRankingOrdersByIterSec: a pp axis produces points with different
// modeled iteration times; the ranking lists them fastest first and TopK
// truncates it.
func TestSweepRankingOrdersByIterSec(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := fmt.Sprintf(`{"base":%s,"axes":{"pp":[1,2,4]},"top_k":2}`, tinyBody(4, 8))
	resp := postSweep(t, ts, body)
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Ranking) != 2 {
		t.Fatalf("top_k=2 ranking has %d entries: %v", len(sr.Ranking), sr.Ranking)
	}
	if sr.Points[sr.Ranking[0]].IterSec > sr.Points[sr.Ranking[1]].IterSec {
		t.Fatalf("ranking not ascending by iter_sec: %v", sr.Ranking)
	}
	for _, p := range sr.Points {
		if p.Error == nil && p.IterSec <= 0 {
			t.Fatalf("point %d has no modeled iteration time: %+v", p.Index, p)
		}
	}
}

// TestSweepCancellationFailsWholeSweepAndStoreStaysUsable: a deadline
// mid-grid fails the whole sweep with the canonical timeout envelope, and the
// shared cost store is left clean — the retry (with the stall removed) plans
// the grid correctly from the surviving complete entries.
func TestSweepCancellationFailsWholeSweepAndStoreStaysUsable(t *testing.T) {
	s, ts := testServer(t, Config{RequestTimeout: 500 * time.Millisecond})
	realPlan := s.planFn
	var mu sync.Mutex
	stall := true
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		mu.Lock()
		blocked := stall && req.GlobalBatch == 16
		mu.Unlock()
		if blocked {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return realPlan(ctx, req)
	}

	body := sweepBody(tinyBody(4, 8), `{"global_batch":[8,16]}`)
	resp := postSweep(t, ts, body)
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled sweep: status %d, want 504: %s", resp.StatusCode, data)
	}
	e, err := request.ParseErrorResponse(data)
	if err != nil || e.Err.Code != request.ErrCodeTimeout {
		t.Fatalf("stalled sweep envelope: %s (%v)", data, err)
	}

	// Remove the stall and retry the identical sweep: the aborted run must not
	// have cached a partial response or poisoned the store.
	mu.Lock()
	stall = false
	mu.Unlock()
	resp = postSweep(t, ts, body)
	data = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after cancellation: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get(headerCache) == CacheHit {
		t.Fatal("aborted sweep left a cached response behind")
	}
	sr, err := request.ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Failed != 0 || len(sr.Ranking) != 2 {
		t.Fatalf("retry stats %+v ranking %v", sr.Stats, sr.Ranking)
	}
	for i, gb := range []int{8, 16} {
		want := offlinePlanBytes(t, tinyBody(4, gb))
		if !bytes.Equal([]byte(sr.Points[i].Plan), want) {
			t.Fatalf("post-cancellation point %d differs from offline plan — store left dirty", i)
		}
	}
}

// TestSweepCacheHitIsByteIdentical: the whole sweep caches under its own hash.
func TestSweepCacheHitIsByteIdentical(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := sweepBody(tinyBody(2, 8), `{"global_batch":[8,16]}`)
	cold := postSweep(t, ts, body)
	coldBytes := readBody(t, cold)
	if cold.StatusCode != http.StatusOK || cold.Header.Get(headerCache) != CacheMiss {
		t.Fatalf("cold sweep: %d %q", cold.StatusCode, cold.Header.Get(headerCache))
	}
	warm := postSweep(t, ts, body)
	warmBytes := readBody(t, warm)
	if warm.Header.Get(headerCache) != CacheHit {
		t.Fatalf("warm sweep disposition %q", warm.Header.Get(headerCache))
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatal("cached sweep differs from cold sweep")
	}
	if readSamples(t, s)("sweep_requests_total") != 2 {
		t.Fatalf("sweep requests = %d, want 2", readSamples(t, s)("sweep_requests_total"))
	}
}

// TestErrorEnvelopeMatrix sweeps every v1 endpoint across its generic failure
// modes and asserts the one canonical error shape: JSON content type, the
// envelope structure, the stable code and the echoed status.
func TestErrorEnvelopeMatrix(t *testing.T) {
	_, ts := testServer(t, Config{})
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	huge := `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"plan GET", func() *http.Response { return get("/v1/plan") }, 405, request.ErrCodeMethodNotAllowed},
		{"simulate GET", func() *http.Response { return get("/v1/simulate") }, 405, request.ErrCodeMethodNotAllowed},
		{"replan GET", func() *http.Response { return get("/v1/replan") }, 405, request.ErrCodeMethodNotAllowed},
		{"sweep GET", func() *http.Response { return get("/v1/sweep") }, 405, request.ErrCodeMethodNotAllowed},
		{"plan garbage", func() *http.Response { return post("/v1/plan", "not json") }, 400, request.ErrCodeInvalidRequest},
		{"simulate garbage", func() *http.Response { return post("/v1/simulate", "not json") }, 400, request.ErrCodeInvalidRequest},
		{"replan garbage", func() *http.Response { return post("/v1/replan", "not json") }, 400, request.ErrCodeInvalidRequest},
		{"sweep garbage", func() *http.Response { return post("/v1/sweep", "not json") }, 400, request.ErrCodeInvalidRequest},
		{"plan oversized", func() *http.Response { return post("/v1/plan", huge) }, 413, request.ErrCodePayloadTooLarge},
		{"sweep oversized", func() *http.Response { return post("/v1/sweep", huge) }, 413, request.ErrCodePayloadTooLarge},
		{"trace unknown id", func() *http.Response { return get("/v1/trace/nope") }, 404, request.ErrCodeNotFound},
		{"trace POST", func() *http.Response { return post("/v1/trace/x", "{}") }, 405, request.ErrCodeMethodNotAllowed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := c.do()
			data := readBody(t, resp)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			e, err := request.ParseErrorResponse(data)
			if err != nil {
				t.Fatalf("body is not the canonical envelope: %s", data)
			}
			if e.Err.Code != c.code || e.Err.Status != c.status {
				t.Errorf("envelope code=%q status=%d, want %q %d (message %q)",
					e.Err.Code, e.Err.Status, c.code, c.status, e.Err.Message)
			}
			if e.Err.Message == "" {
				t.Error("envelope message empty")
			}
			var generic struct {
				Error json.RawMessage `json:"error"`
			}
			if err := json.Unmarshal(data, &generic); err != nil || len(generic.Error) == 0 || generic.Error[0] != '{' {
				t.Errorf("top-level \"error\" is not an object: %s", data)
			}
		})
	}
}

// TestSweepSnapshotPersistsAcrossRestart: the daemon-level persistence loop —
// a server populates its store, Close() saves it, a second server loads it
// and answers a fresh sweep with zero knapsack work.
func TestSweepSnapshotPersistsAcrossRestart(t *testing.T) {
	path := t.TempDir() + "/costs.json"
	s1 := New(Config{CostStorePath: path})
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/sweep", "application/json",
		strings.NewReader(sweepBody(tinyBody(4, 8), `{"global_batch":[8,16]}`)))
	if err != nil {
		t.Fatal(err)
	}
	first := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first server sweep: %d: %s", resp.StatusCode, first)
	}
	ts1.Close()
	s1.Close() // saves the snapshot

	s2 := New(Config{CostStorePath: path})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	resp, err = http.Post(ts2.URL+"/v1/sweep", "application/json",
		strings.NewReader(sweepBody(tinyBody(4, 8), `{"global_batch":[8,16]}`)))
	if err != nil {
		t.Fatal(err)
	}
	second := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server sweep: %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("restored-store sweep differs from the original server's sweep")
	}
	st := readSamples(t, s2)
	if st("knapsack_runs_total") != 0 {
		t.Fatalf("restarted server solved %d knapsacks, want 0 (all from the restored store)", st("knapsack_runs_total"))
	}
	if st("cost_store_hits_total") == 0 {
		t.Fatal("restarted server recorded no cost-store hits")
	}
}
