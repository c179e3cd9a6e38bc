// Command servesmoke is the end-to-end smoke test for the adapiped daemon.
// It spawns a built daemon binary on an ephemeral port and walks the serving
// contract from the outside: /healthz answers, a cold /v1/plan runs exactly
// one search and returns a trace whose spans account for (nearly) all of the
// request wall time, the trace renders byte-identically across repeated
// /v1/trace/{id} fetches, the identical repeat plan is a cache hit with a
// byte-identical body and no extra knapsack work, a 3-point /v1/sweep comes
// back in expansion order and is amortized by the shared cost store (knapsack runs well under points ×
// cold-per-point, with the reuse visible as cost-store hits in /metrics) and
// embeds the cached base plan byte-identically, failures answer with the
// canonical error envelope, and SIGTERM drains to a clean exit. Any violation
// exits non-zero, so `make serve-smoke` is a pass/fail gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const planBody = `{"model":"tiny","tiny_layers":12,"cluster":"a","method":"AdaPipe","tp":1,"pp":4,"dp":1,"seq_len":16384,"global_batch":16,"micro_batch":1,"memory_reserve":0.92}`

// minCoverage is the share of the request wall time the trace's phase spans
// must account for: a trace that loses 5%+ of a request to unexplained gaps
// is not fit for latency work.
const minCoverage = 0.95

func main() {
	daemon := flag.String("daemon", "bin/adapiped", "path to the built adapiped binary")
	timeout := flag.Duration("timeout", 30*time.Second, "overall smoke budget")
	traceOut := flag.String("trace-out", "", "write the cold request's Chrome trace JSON to this file (CI uploads it as an artifact)")
	flag.Parse()

	if err := run(*daemon, *timeout, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(daemon string, budget time.Duration, traceOut string) error {
	deadline := time.Now().Add(budget)
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	addrFile := filepath.Join(dir, "addr")

	var daemonOut bytes.Buffer
	cmd := exec.Command(daemon,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache", "8", "-inflight", "2", "-timeout", "20s")
	cmd.Stdout = &daemonOut
	cmd.Stderr = &daemonOut
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", daemon, err)
	}
	// exited is closed once the daemon terminates; exitErr holds its Wait
	// result. A closed channel can be received from any number of times, so
	// both the failure-path cleanup and the shutdown check can wait on it.
	var exitErr error
	exited := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(exited) }()
	// On any failure path, make sure the daemon does not outlive the harness.
	defer func() {
		_ = cmd.Process.Kill()
		<-exited
	}()

	addr, err := waitForAddr(addrFile, exited, deadline, &daemonOut)
	if err != nil {
		return err
	}
	base := "http://" + addr

	// 1. Liveness.
	if err := waitHealthy(base, deadline); err != nil {
		return fmt.Errorf("healthz: %v\ndaemon output:\n%s", err, daemonOut.String())
	}
	fmt.Printf("servesmoke: daemon healthy on %s\n", addr)

	// 2. Cold plan: one search, disposition "miss", a trace id in the
	// X-Adapipe-Trace header.
	cold, disp, traceID, reqHash, err := postPlan(base)
	if err != nil {
		return err
	}
	if disp != "miss" {
		return fmt.Errorf("first plan disposition = %q, want miss", disp)
	}
	if traceID == "" {
		return fmt.Errorf("cold plan response carried no X-Adapipe-Trace header")
	}
	if reqHash == "" {
		return fmt.Errorf("cold plan response carried no X-Adapipe-Request-Hash header")
	}
	m, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	if m["adapipe_serve_searches_total"] != 1 {
		return fmt.Errorf("after cold plan searches_total = %v, want 1", m["adapipe_serve_searches_total"])
	}
	knapsacks := m["adapipe_serve_knapsack_runs_total"]
	if knapsacks <= 0 {
		return fmt.Errorf("cold search reported %v knapsack runs, want > 0", knapsacks)
	}
	fmt.Printf("servesmoke: cold plan searched (%v knapsack runs)\n", knapsacks)

	// 3. The trace: retrievable by id, valid Chrome trace JSON,
	// byte-identical across two renders, and its phase spans account for
	// (nearly) the whole request.
	trace1, err := getTrace(base, traceID)
	if err != nil {
		return err
	}
	trace2, err := getTrace(base, traceID)
	if err != nil {
		return err
	}
	if !bytes.Equal(trace1, trace2) {
		return fmt.Errorf("trace %s rendered differently across two fetches", traceID)
	}
	cov, err := traceCoverage(trace1)
	if err != nil {
		return fmt.Errorf("trace %s: %w", traceID, err)
	}
	if cov < minCoverage {
		return fmt.Errorf("trace %s phases account for %.1f%% of the request wall, want >= %.0f%%\ntrace:\n%s",
			traceID, cov*100, minCoverage*100, trace1)
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, trace1, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
		fmt.Printf("servesmoke: wrote %s\n", traceOut)
	}
	fmt.Printf("servesmoke: trace %s deterministic, %.1f%% of request wall accounted\n", traceID, cov*100)

	// 4. Repeat: cache hit, byte-identical body, zero extra search work.
	warm, disp, _, warmHash, err := postPlan(base)
	if err != nil {
		return err
	}
	if disp != "hit" {
		return fmt.Errorf("repeat plan disposition = %q, want hit", disp)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("cached response differs from cold response:\ncold: %s\nwarm: %s", cold, warm)
	}
	if warmHash != reqHash {
		return fmt.Errorf("request hash changed across identical requests: %q -> %q", reqHash, warmHash)
	}
	m, err = scrapeMetrics(base)
	if err != nil {
		return err
	}
	switch {
	case m["adapipe_serve_cache_hits_total"] != 1:
		return fmt.Errorf("cache_hits_total = %v, want 1", m["adapipe_serve_cache_hits_total"])
	case m["adapipe_serve_searches_total"] != 1:
		return fmt.Errorf("repeat re-searched: searches_total = %v, want 1", m["adapipe_serve_searches_total"])
	case m["adapipe_serve_knapsack_runs_total"] != knapsacks:
		return fmt.Errorf("repeat did knapsack work: %v -> %v", knapsacks, m["adapipe_serve_knapsack_runs_total"])
	case m["adapipe_serve_request_seconds_count"] < 2:
		return fmt.Errorf("request latency histogram recorded %v observations, want >= 2",
			m["adapipe_serve_request_seconds_count"])
	}
	fmt.Println("servesmoke: repeat served from cache, byte-identical, no extra search work")

	// 5. Sweep amortization: a global-batch grid over the cached base shares
	// one cost family, so the whole grid must cost far fewer knapsack runs
	// than points × cold-per-point, with the reuse visible as cost-store hits
	// in /metrics. The base point must come back byte-identical to /v1/plan.
	if err := smokeSweep(base, cold, knapsacks); err != nil {
		return err
	}

	// 6. Error envelope: a garbage body answers with the canonical
	// machine-readable error shape.
	if err := smokeErrorEnvelope(base); err != nil {
		return err
	}

	// 7. Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v\ndaemon output:\n%s", exitErr, daemonOut.String())
		}
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("daemon did not exit within budget after SIGTERM\ndaemon output:\n%s", daemonOut.String())
	}
	fmt.Println("servesmoke: SIGTERM drained to clean exit")
	return nil
}

// smokeSweep posts a 3-point global-batch sweep whose first point is the
// already-cached cold plan and checks the amortization contract: every point
// planned or served, in expansion order, the base point byte-identical to the
// /v1/plan body's plan, and the grid's knapsack cost well under points ×
// cold-per-point.
func smokeSweep(base string, coldPlanResp []byte, coldKnapsacks float64) error {
	before, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	sweepBody := `{"base":` + planBody + `,"axes":{"global_batch":[16,32,48]}}`
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/sweep status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Adapipe-Cache"); h != "miss" {
		return fmt.Errorf("cold sweep disposition = %q, want miss", h)
	}
	if resp.Header.Get("X-Adapipe-Request-Hash") == "" {
		return fmt.Errorf("sweep response carried no X-Adapipe-Request-Hash header")
	}
	if resp.Header.Get("X-Adapipe-Trace") == "" {
		return fmt.Errorf("sweep response carried no X-Adapipe-Trace header")
	}
	var sweep struct {
		Points []struct {
			Index   int `json:"index"`
			Request struct {
				GlobalBatch int `json:"global_batch"`
			} `json:"request"`
			Plan  json.RawMessage `json:"plan"`
			Error json.RawMessage `json:"error"`
		} `json:"points"`
		Ranking []int `json:"ranking"`
		Stats   struct {
			Points, Planned, Deduped, Cached, Failed int
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil {
		return fmt.Errorf("sweep response does not parse: %w\n%s", err, body)
	}
	if sweep.Stats.Points != 3 || sweep.Stats.Failed != 0 || len(sweep.Ranking) != 3 {
		return fmt.Errorf("sweep stats %+v ranking %v, want 3 clean points", sweep.Stats, sweep.Ranking)
	}
	if sweep.Stats.Cached < 1 {
		return fmt.Errorf("the already-planned base point was not served from cache: %+v", sweep.Stats)
	}
	// Points come back in expansion order, each carrying its grid value.
	for k, gb := range []int{16, 32, 48} {
		if p := sweep.Points[k]; p.Index != k || p.Request.GlobalBatch != gb {
			return fmt.Errorf("sweep point %d is index %d with global_batch %d, want index %d with %d", k, p.Index, p.Request.GlobalBatch, k, gb)
		}
	}
	// The base grid point must embed exactly the plan bytes /v1/plan returned.
	var planResp struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(coldPlanResp, &planResp); err != nil {
		return err
	}
	if !bytes.Equal(sweep.Points[0].Plan, planResp.Plan) {
		return fmt.Errorf("sweep base point differs from /v1/plan:\nsweep: %s\nplan:  %s", sweep.Points[0].Plan, planResp.Plan)
	}
	after, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	delta := after["adapipe_serve_knapsack_runs_total"] - before["adapipe_serve_knapsack_runs_total"]
	budget := 3 * coldKnapsacks
	if delta >= budget {
		return fmt.Errorf("3-point sweep added %v knapsack runs, want < %v (cold-per-point %v): store reuse broken",
			delta, budget, coldKnapsacks)
	}
	if after["adapipe_serve_cost_store_hits_total"] <= before["adapipe_serve_cost_store_hits_total"] {
		return fmt.Errorf("sweep produced no cost-store hits (%v -> %v)",
			before["adapipe_serve_cost_store_hits_total"], after["adapipe_serve_cost_store_hits_total"])
	}
	if after["adapipe_serve_sweep_requests_total"] < 1 || after["adapipe_serve_sweep_points_total"] < 3 {
		return fmt.Errorf("sweep counters missing from /metrics (requests %v, points %v)",
			after["adapipe_serve_sweep_requests_total"], after["adapipe_serve_sweep_points_total"])
	}
	fmt.Printf("servesmoke: 3-point sweep amortized (%v knapsack runs added, cold point costs %v)\n", delta, coldKnapsacks)
	return nil
}

// smokeErrorEnvelope checks the failure contract from the outside: a garbage
// body answers 400 with the canonical {"error":{code,message,status}} shape.
func smokeErrorEnvelope(base string) error {
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader("not json"))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("garbage sweep status %d, want 400: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return fmt.Errorf("error response Content-Type %q, want application/json", ct)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Status  int    `json:"status"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("error body is not the canonical envelope: %s", body)
	}
	if env.Error.Code != "invalid_request" || env.Error.Status != http.StatusBadRequest || env.Error.Message == "" {
		return fmt.Errorf("error envelope %+v, want code invalid_request status 400", env.Error)
	}
	fmt.Println("servesmoke: error envelope canonical (invalid_request, 400)")
	return nil
}

// waitForAddr polls the -addr-file the daemon writes once its listener is
// bound, bailing out early if the daemon dies first.
func waitForAddr(path string, exited <-chan struct{}, deadline time.Time, out *bytes.Buffer) (string, error) {
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return "", fmt.Errorf("daemon exited before binding\ndaemon output:\n%s", out.String())
		default:
		}
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("daemon never wrote its address file\ndaemon output:\n%s", out.String())
}

func waitHealthy(base string, deadline time.Time) error {
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), "ok") {
				return nil
			}
			lastErr = fmt.Errorf("status %d body %q", resp.StatusCode, body)
		} else {
			lastErr = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return lastErr
}

func postPlan(base string) (body []byte, disposition, traceID, requestHash string, err error) {
	resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		return nil, "", "", "", err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", "", "", fmt.Errorf("/v1/plan status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Adapipe-Cache"), resp.Header.Get("X-Adapipe-Trace"),
		resp.Header.Get("X-Adapipe-Request-Hash"), nil
}

// getTrace fetches one stored trace as Chrome trace JSON.
func getTrace(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/trace/%s status %d: %s", id, resp.StatusCode, body)
	}
	return body, nil
}

// traceCoverage parses a Chrome trace document and returns the share of the
// root request span's duration covered by the disjoint phase spans.
func traceCoverage(doc []byte) (float64, error) {
	var d struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("does not parse as Chrome trace JSON: %w", err)
	}
	var root, phases float64
	roots := 0
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" {
			return 0, fmt.Errorf("event %q has phase %q, want complete events (X)", ev.Name, ev.Ph)
		}
		switch ev.Cat {
		case "request":
			root = ev.Dur
			roots++
		case "phase":
			phases += ev.Dur
		}
	}
	if roots != 1 {
		return 0, fmt.Errorf("found %d request spans, want exactly 1", roots)
	}
	if root <= 0 {
		return 0, fmt.Errorf("request span has non-positive duration %g", root)
	}
	return phases / root, nil
}

// scrapeMetrics parses the unlabelled adapipe_serve_* gauges out of the
// Prometheus text exposition. Labelled series (requests_total) are skipped;
// the smoke assertions only need the scalar counters.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, nil
}
