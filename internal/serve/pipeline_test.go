package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapipe/internal/core"
	"adapipe/internal/request"
)

// serveRecovering drives the handler in-process and recovers a handler panic
// the way net/http's connection loop would, reporting it to the test instead.
func serveRecovering(h http.Handler, ctx context.Context, path, body string) (rec *httptest.ResponseRecorder, panicked any) {
	defer func() { panicked = recover() }()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
	return rec, nil
}

// TestPanickingSearchDoesNotPoisonHash: a search that panics must cost
// exactly its own request. The
// in-flight call for its hash is deregistered, so the next identical request
// searches afresh instead of waiting forever; the admission slot and the
// in-flight gauge come back; other hashes never notice.
func TestPanickingSearchDoesNotPoisonHash(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	defer s.Close()
	h := s.Handler()
	var panics atomic.Int64
	realPlan := s.planFn
	s.planFn = func(ctx context.Context, req request.PlanRequest) (*core.Plan, error) {
		if panics.Add(-1) >= 0 {
			panic("search died")
		}
		return realPlan(ctx, req)
	}
	// A poisoned hash turns the retry into a waiter; its own deadline makes
	// that a 504 here rather than a hung test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, tc := range []struct{ path, body, other string }{
		{"/v1/plan", tinyBody(2, 8), tinyBody(4, 8)},
		{"/v1/sweep", sweepBody(tinyBody(2, 16), `{}`), sweepBody(tinyBody(4, 16), `{}`)},
	} {
		panics.Store(1)
		if _, p := serveRecovering(h, ctx, tc.path, tc.body); p != "search died" {
			t.Fatalf("%s: the search's panic did not reach the caller (recovered %v)", tc.path, p)
		}
		if st := readSamples(t, s); st("in_flight") != 0 || len(s.sem) != 0 {
			t.Fatalf("%s: after the panic in_flight = %d and %d admission slots are held, want 0 and 0", tc.path, st("in_flight"), len(s.sem))
		}
		for _, body := range []string{tc.body, tc.other} {
			rec, p := serveRecovering(h, ctx, tc.path, body)
			if p != nil || rec.Code != http.StatusOK || rec.Header().Get(headerCache) != CacheMiss {
				t.Fatalf("%s after a panicked search: panic %v, status %d, disposition %q; want a fresh 200 miss\n%s",
					tc.path, p, rec.Code, rec.Header().Get(headerCache), rec.Body)
			}
		}
	}
}

// statusCounter counts the responses a handler wrote by class, server-side:
// a client that gave up never sees its response, but the server still wrote one.
type statusCounter struct {
	http.ResponseWriter
	ok, failed *atomic.Int64
}

func (w statusCounter) WriteHeader(status int) {
	if status >= 200 && status < 300 {
		w.ok.Add(1)
	} else {
		w.failed.Add(1)
	}
	w.ResponseWriter.WriteHeader(status)
}

// TestMixedLoadCountersBalance drives every POST endpoint at once through a
// two-slot admission gate — repeats that hit and coalesce, clients that give
// up, and a shutdown halfway — and then checks the books of the one admission
// site and the one epilogue: no slot or gauge left held, every request
// accounted for exactly once as a 2xx or an error.
func TestMixedLoadCountersBalance(t *testing.T) {
	s := New(Config{MaxInFlight: 2})
	var ok, failed atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(statusCounter{w, &ok, &failed}, r)
	}))

	type call struct{ path, body string }
	var calls []call
	for round := 0; round < 3; round++ {
		for pp := 2; pp <= 4; pp += 2 {
			scale := []float64{1.5, 1, 1, 1}[:pp]
			calls = append(calls,
				call{"/v1/plan", tinyBody(pp, 8)},
				call{"/v1/plan", tinyBody(pp, 8*(round+2))},
				call{"/v1/simulate", tinyBody(pp, 8)},
				call{"/v1/replan", replanBody(pp, 8, scale)},
				call{"/v1/sweep", sweepBody(tinyBody(pp, 8), `{"global_batch":[8,16,24]}`)},
			)
		}
	}
	done := make(chan struct{}, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c call) {
			defer wg.Done()
			defer func() { done <- struct{}{} }()
			ctx := context.Background()
			impatient := i%5 == 4
			if impatient {
				// An impatient client: whatever it was waiting on must go on
				// (or unwind) without it.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			switch {
			case err != nil:
			case impatient:
				// Its deadline can also fire between the headers and the
				// end of the body; the server's books count the response
				// either way.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			default:
				if _, err := drainBody(resp); err != nil {
					t.Error(err)
				}
			}
		}(i, c)
	}
	for i := 0; i < len(calls)/2; i++ {
		<-done
	}
	s.Close()
	wg.Wait()
	resp := postPlan(t, ts, tinyBody(2, 1024))
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("a search after shutdown answered %d, want 503", resp.StatusCode)
	}
	ts.Close() // returns once every handler has, including those whose client left

	st := readSamples(t, s)
	if st("in_flight") != 0 || len(s.sem) != 0 {
		t.Errorf("after the load in_flight = %d and %d admission slots are held, want 0 and 0", st("in_flight"), len(s.sem))
	}
	// A client that left early may never reach a handler, or may reach it
	// with a body that cannot be read any more: handled <= sent, and the
	// requests that decoded are at most the handled ones and at least the 2xx.
	accepted := st("requests_total{endpoint=\"plan\"}") + st("requests_total{endpoint=\"simulate\"}") + st("replan_requests_total") + st("sweep_requests_total")
	var handled int64
	for _, c := range s.histRequest.Snapshot().Counts {
		handled += c
	}
	if handled > int64(len(calls))+1 || accepted > handled || accepted < ok.Load() {
		t.Errorf("%d requests sent, %d handled, %d accepted, %d answered 2xx", len(calls), handled, accepted, ok.Load())
	}
	if ok.Load()+st("errors_total") != handled || failed.Load() != st("errors_total") {
		t.Errorf("%d handled != %d 2xx + %d errors_total (server wrote %d non-2xx)", handled, ok.Load(), st("errors_total"), failed.Load())
	}
	if ok.Load() == 0 || st("errors_total") == 0 {
		t.Errorf("the load mixes outcomes by construction, yet %d 2xx and %d errors", ok.Load(), st("errors_total"))
	}
	if st("cache_hits_total")+st("cache_misses_total")+st("coalesced_total") > st("requests_total{endpoint=\"plan\"}")+st("sweep_requests_total")+st("sweep_points_cached_total") {
		t.Errorf("cache dispositions exceed the cacheable requests: %s", dumpSamples(s))
	}
}

// TestPlanHitAllocsBounded guards plan_hot, the benchmark workload that runs
// almost only the pipeline (decode, cache hit, write): a cached /v1/plan
// through Handler() measured 113 allocations before the four handlers became
// one pipeline, and may not cost over 10% more than that.
func TestPlanHitAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(tinyBody(2, 8))))
		return rec
	}
	post()
	if d := post().Header().Get(headerCache); d != CacheHit {
		t.Fatalf("repeat disposition %q, want hit", d)
	}
	const before = 113
	if got := testing.AllocsPerRun(200, func() { post() }); got > before*1.10 {
		t.Errorf("a cached /v1/plan costs %.0f allocations, over the %d measured before the pipeline by more than 10%%", got, before)
	}
}

// FuzzDecodeRequest fuzzes the one decode function over the three request
// kinds. It must never panic; a body that decodes must re-encode to a body
// that decodes to the same canonical hash; and any other body must yield the
// canonical invalid_request envelope.
func FuzzDecodeRequest(f *testing.F) {
	s := New(Config{})
	f.Cleanup(s.Close)
	for kind, body := range []string{
		tinyBody(2, 8),
		replanBody(2, 8, []float64{1, 1.5}),
		sweepBody(tinyBody(2, 8), `{"global_batch":[8,16]}`),
	} {
		f.Add(uint8(kind), []byte(body))
		f.Add(uint8(kind+1), []byte(body)) // a valid body of the wrong kind
	}
	f.Add(uint8(0), []byte(`{"model":`))
	f.Add(uint8(1), []byte(`{"request":{"model":"tiny"},"scale":[0]}`))
	f.Add(uint8(2), []byte(`{"base":{"model":"tiny","tp":1,"pp":2,"dp":1},"axes":{"pp":[]}}`))
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		switch kind % 3 {
		case 0:
			fuzzDecode(t, s.planEndpoint(), body)
		case 1:
			fuzzDecode(t, s.replanEndpoint(), body)
		case 2:
			fuzzDecode(t, s.sweepEndpoint(), body)
		}
	})
}

func fuzzDecode[R any](t *testing.T, ep endpoint[R], body []byte) {
	dec := func(body []byte) (R, string, *httpError) {
		return decode(ep, httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/fuzz", bytes.NewReader(body)))
	}
	req, hash, herr := dec(body)
	if herr != nil {
		env, err := request.ParseErrorResponse(herr.result().body)
		if err != nil {
			t.Fatalf("failure is not the canonical envelope: %v\n%s", err, herr.result().body)
		}
		want := httpError{status: http.StatusBadRequest, code: request.ErrCodeInvalidRequest}
		if len(body) > maxBodyBytes {
			want = httpError{status: http.StatusRequestEntityTooLarge, code: request.ErrCodePayloadTooLarge}
		}
		if herr.status != want.status || env.Err.Code != want.code || env.Err.Status != want.status {
			t.Fatalf("undecodable body answered %d %+v, want %d %s", herr.status, env.Err, want.status, want.code)
		}
		return
	}
	if hash == "" {
		t.Fatal("a body decoded without a hash")
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("decoded request does not re-encode: %v", err)
	}
	if _, rehash, herr := dec(again); herr != nil || rehash != hash {
		t.Fatalf("re-encoded request decodes to hash %q (%v), want %q\nbody:    %s\nencoded: %s", rehash, herr, hash, body, again)
	}
}

// TestDefaultInFlightTracksGOMAXPROCS pins the daemon's one parallelism
// setting: a search is one goroutine, so the default admission bound is one
// slot per core the Go scheduler runs, and never fewer than two.
func TestDefaultInFlightTracksGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs, want := range map[int]int{1: 2, 2: 2, 3: 3, 8: 8} {
		runtime.GOMAXPROCS(procs)
		s := New(Config{})
		if got := cap(s.sem); got != want {
			t.Errorf("GOMAXPROCS %d: default MaxInFlight = %d, want %d", procs, got, want)
		}
		s.Close()
	}
	s := New(Config{MaxInFlight: 1})
	defer s.Close()
	if got := cap(s.sem); got != 1 {
		t.Errorf("explicit MaxInFlight 1 became %d", got)
	}
}
