package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"

	"adapipe/internal/memo"
	"adapipe/internal/obs"
	"adapipe/internal/request"
)

// result is what one request produced: the HTTP status, the response body,
// and the value of the endpoint's disposition header ("" for none).
type result struct {
	status      int
	body        []byte
	disposition string
}

// endpoint is everything that differs between the POST endpoints; handle is
// everything they share.
type endpoint[R any] struct {
	// parse validates a request body, and hash derives the canonical hash that
	// keys the caches and comes back in X-Adapipe-Request-Hash.
	parse func(body []byte) (R, error)
	hash  func(R) (string, error)
	// accepted counts the requests that decoded.
	accepted *atomic.Int64
	// cacheable endpoints are pure functions of the hash: their 200 responses
	// are cached, concurrent identical requests share one run, and the
	// disposition header says which of the three happened.
	cacheable bool
	// header names the endpoint's disposition header.
	header string
	// run does the endpoint's own work under an admission slot and the
	// request deadline, recording its "search" and "encode" phase spans on tr.
	// An endpoint that is not cacheable sets its own result.disposition; a
	// cacheable one leaves it to the cache.
	run func(ctx context.Context, tr *obs.Tracer, req R, hash string) result
}

// cacheDisposition maps how the response cache satisfied a lookup onto the
// X-Adapipe-Cache header value.
var cacheDisposition = [...]string{memo.Computed: CacheMiss, memo.Hit: CacheHit, memo.Shared: CacheCoalesced}

// handle is the one request pipeline. Every request runs under a tracer
// whose id comes back in X-Adapipe-Trace; phases runs the request and
// records one CatPhase span per phase, and the epilogue here closes the
// request span, stores the trace in the ring BEFORE the response is written
// (so a client that fetches /v1/trace/{id} the moment it sees the response
// always finds it), and emits headers, body and log record.
func handle[R any](s *Server, ep endpoint[R]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.newTracer()
		reqStart := s.clock()
		hash, res := phases(s, ep, w, r, tr)
		reqEnd := s.clock()
		tr.Add("request", obs.CatRequest, reqStart, reqEnd)
		s.histRequest.Observe(reqEnd.Sub(reqStart))
		if id := tr.ID(); id != "" {
			s.traces.Put(id, tr)
			w.Header().Set(headerTrace, id)
		}
		if res.disposition != "" {
			w.Header().Set(ep.header, res.disposition)
		}
		s.writeResult(w, hash, res)
		s.logRequest(r, tr.ID(), hash, res.disposition, res.status, reqEnd.Sub(reqStart))
	}
}

// phases takes one request through decode, then — for a cacheable endpoint —
// the cache lookup and the coalesced run, or else the admitted run directly.
// An empty disposition means the failure happened before (or instead of) a
// classified outcome and no disposition header applies.
func phases[R any](s *Server, ep endpoint[R], w http.ResponseWriter, r *http.Request, tr *obs.Tracer) (hash string, res result) {
	decStart := s.clock()
	req, hash, herr := decode(ep, w, r)
	tr.Add("decode", obs.CatPhase, decStart, s.clock())
	if herr != nil {
		return "", herr.result()
	}
	ep.accepted.Add(1)
	run := func(ctx context.Context) result { return ep.run(ctx, tr, req, hash) }
	if !ep.cacheable {
		return hash, s.admitted(tr, run)
	}

	lookStart := s.clock()
	res, cached := s.cache.Get(hash)
	lookEnd := s.clock()
	tr.Add("cache", obs.CatPhase, lookStart, lookEnd)
	s.histCache.Observe(lookEnd.Sub(lookStart))
	disp := memo.Hit
	if !cached {
		var err error
		res, disp, err = s.cache.GetOrCompute(r.Context(), hash, func() (result, bool) {
			// The leader. Only a 200 is stored; a failure is still handed to
			// the requests that coalesced into this run.
			res := s.admitted(tr, run)
			return res, res.status == http.StatusOK
		})
		if err != nil {
			// This waiter's own context ended before the leader finished; the
			// leader keeps running for everyone else.
			return hash, errResult(http.StatusGatewayTimeout, request.ErrCodeTimeout, "request cancelled while waiting for a coalesced search")
		}
	}
	switch disp {
	case memo.Hit:
		s.hits.Add(1)
	case memo.Shared:
		// The search ran under the leader's trace; this request only waited,
		// and that wait is its whole story.
		tr.Add("coalesce", obs.CatPhase, lookEnd, s.clock())
		s.coalescedCount.Add(1)
	case memo.Computed:
		if res.status == http.StatusOK {
			s.misses.Add(1)
		}
	}
	res.disposition = cacheDisposition[disp]
	return hash, res
}

// decode is the one request prologue: method check, bounded body read (w is
// needed by MaxBytesReader to arm connection close on overflow), parse and
// validate, canonical hash.
func decode[R any](ep endpoint[R], w http.ResponseWriter, r *http.Request) (req R, hash string, herr *httpError) {
	if r.Method != http.MethodPost {
		return req, "", &httpError{http.StatusMethodNotAllowed, request.ErrCodeMethodNotAllowed, r.URL.Path + " accepts POST only"}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, "", &httpError{http.StatusRequestEntityTooLarge, request.ErrCodePayloadTooLarge, "request body exceeds 1 MiB"}
		}
		return req, "", &httpError{http.StatusBadRequest, request.ErrCodeInvalidRequest, "reading request body: " + err.Error()}
	}
	if req, err = ep.parse(body); err == nil {
		hash, err = ep.hash(req)
	}
	if err != nil {
		return req, "", &httpError{http.StatusBadRequest, request.ErrCodeInvalidRequest, err.Error()}
	}
	return req, hash, nil
}

// admitted is the one admission site: it runs fn while holding an admission
// slot, under a fresh request deadline derived from the server's base
// context (so a shutdown cancels queued waiters and running searches alike),
// and never from the client's — a coalescing leader must outlive an impatient
// client. Everything it acquires is released by defer, so a search that
// panics leaves the slot free (the in-flight gauge is the slots held). A
// request that is not admitted fails as shutting_down when the server is
// closing and as over_capacity when the queue deadline expired under load.
func (s *Server) admitted(tr *obs.Tracer, fn func(ctx context.Context) result) result {
	qStart := s.clock()
	ctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
	defer cancel()
	var admitted bool
	select {
	case s.sem <- struct{}{}:
		admitted = true
	case <-ctx.Done():
	}
	qEnd := s.clock()
	tr.Add("queue", obs.CatPhase, qStart, qEnd)
	s.histQueue.Observe(qEnd.Sub(qStart))
	if !admitted {
		s.rejected.Add(1)
		if s.base.Err() != nil {
			return errResult(http.StatusServiceUnavailable, request.ErrCodeShuttingDown, "server shutting down")
		}
		return errResult(http.StatusServiceUnavailable, request.ErrCodeOverCapacity, "admission queue timeout: server at capacity")
	}
	defer func() { <-s.sem }()
	return fn(ctx)
}
