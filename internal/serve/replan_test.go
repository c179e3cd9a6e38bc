package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"adapipe/internal/request"
)

func postReplan(t *testing.T, ts string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts+"/v1/replan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func replanBody(pp, gbs int, scale []float64) string {
	sc, _ := json.Marshal(scale)
	return fmt.Sprintf(`{"request":%s,"scale":%s}`, tinyBody(pp, gbs), sc)
}

// TestReplanEndpointWarmStartsAndMatchesOffline is the serving-layer half of
// the differential harness: two replans for one plan request must run cold
// then warm (the store keeps the planner), and each served plan must be
// byte-identical to what the offline path — one planner, cold Plan, the same
// ReplanWithScale sequence — produces. The daemon adds state management,
// never drift.
func TestReplanEndpointWarmStartsAndMatchesOffline(t *testing.T) {
	s, ts := testServer(t, Config{})
	scales := [][]float64{
		{1, 1.5, 1, 1},
		{1, 1.7, 1, 1},
	}

	// The offline mirror of what the server should compute.
	req, err := request.ParsePlanRequest([]byte(tinyBody(4, 8)))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := req.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	incumbent, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}

	wantDisposition := []string{ReplanCold, ReplanWarm}
	for i, scale := range scales {
		resp := postReplan(t, ts.URL, replanBody(4, 8, scale))
		data := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replan %d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get(headerReplan); got != wantDisposition[i] {
			t.Fatalf("replan %d disposition %q, want %q", i, got, wantDisposition[i])
		}
		// The warm replan runs no seeding search, so its search.* spans
		// can only come from the re-search itself.
		requireSearchSpan(t, ts, resp)
		rr, err := request.ParseReplanResponse(data)
		if err != nil {
			t.Fatalf("replan %d: %v", i, err)
		}
		// Even the seeding request's replan warm-starts: its own cold
		// search installed the memo the re-search reuses.
		if !rr.Incremental {
			t.Fatalf("replan %d did not take the incremental path: %+v", i, rr)
		}
		if rr.WarmStartCells == 0 {
			t.Errorf("replan %d reused no DP cells: %+v", i, rr)
		}

		rep, err := pl.ReplanWithScale(incumbent, scale)
		if err != nil {
			t.Fatal(err)
		}
		next := rep.Old
		if rep.Adopted {
			next = rep.New
			incumbent = rep.New
		}
		want, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Adopted != rep.Adopted {
			t.Fatalf("replan %d adopted = %v, offline %v", i, rr.Adopted, rep.Adopted)
		}
		if !bytes.Equal([]byte(rr.Plan), want) {
			t.Fatalf("replan %d: served plan differs from offline replan:\n%s\nvs\n%s", i, rr.Plan, want)
		}
	}

	st := readSamples(t, s)
	if st("replan_requests_total") != 2 || st("replans_cold_total") != 1 || st("replans_incremental_total") != 1 {
		t.Fatalf("replan counters: %s", dumpSamples(s))
	}
	if st("replan_planners") != 1 {
		t.Fatalf("planner store holds %d planners, want 1", st("replan_planners"))
	}

	metrics := scrapeMetrics(t, ts)
	for _, want := range []string{
		"adapipe_serve_replan_requests_total 2",
		"adapipe_serve_replans_incremental_total 1",
		"adapipe_serve_replans_cold_total 1",
		"adapipe_serve_replan_planners 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestReplanPlannerStoreEviction: with a store bound of 1, replanning a
// second request evicts the first planner, so its next replan runs cold
// again (correct, just slower).
func TestReplanPlannerStoreEviction(t *testing.T) {
	_, ts := testServer(t, Config{PlannerStoreSize: 1})
	a := replanBody(2, 8, []float64{1.5, 1})
	b := replanBody(4, 8, []float64{1, 1.5, 1, 1})
	for i, c := range []struct {
		body, want string
	}{
		{a, ReplanCold},
		{b, ReplanCold}, // evicts a's planner
		{a, ReplanCold}, // a must re-seed
		{a, ReplanWarm}, // now warm again
	} {
		resp := postReplan(t, ts.URL, c.body)
		data := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get(headerReplan); got != c.want {
			t.Fatalf("step %d disposition %q, want %q", i, got, c.want)
		}
	}
}

// TestReplanBadRequests: malformed replans are rejected before any search.
func TestReplanBadRequests(t *testing.T) {
	s, ts := testServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{replanBody(4, 8, []float64{1, 1}), http.StatusBadRequest},        // wrong scale length
		{replanBody(4, 8, []float64{1, -2, 1, 1}), http.StatusBadRequest}, // non-positive scale
		{`{"request":{"model":"tiny","tp":1,"pp":2,"dp":1,"seq_len":2048,"global_batch":8},"scale":[1,1],"junk":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postReplan(t, ts.URL, c.body)
		data := readBody(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/replan")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/replan: status %d, want 405", resp.StatusCode)
	}
	if readSamples(t, s)("searches_total") != 0 {
		t.Fatal("bad replans ran searches")
	}
}
