package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// clientCount is the closed-loop concurrency of every daemon workload: the
// callers are schedulers and straggler controllers that wait for each reply.
func clientCount() int { return min(lanes, runtime.NumCPU()) }

// client is one closed-loop caller: a single keep-alive connection that the
// calling goroutine writes a request to and then reads the reply from. It
// does not go through net/http's Transport, whose per-connection reader and
// writer goroutines would add two scheduler hand-offs to every operation —
// on two cores shared with the daemon those are a large, erratic share of a
// 150 µs round trip.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
	body bytes.Buffer
}

func newClient(base string) *client { return &client{addr: strings.TrimPrefix(base, "http://")} }

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing is in flight: the reply was read in full
		c.conn = nil
	}
}

// opTimeout bounds one operation; the daemon's own request deadline is 30 s.
const opTimeout = 60 * time.Second

// post sends one operation and reads the whole reply. The reply's body is
// only valid until the client's next post.
func (c *client) post(o op) (reply, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	if err := c.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return reply{}, err
	}
	c.req.Reset()
	fmt.Fprintf(&c.req, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", o.kind.path(), c.addr, len(o.body))
	c.req.Write(o.body)
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		c.close()
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return reply{}, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: c.body.Bytes()}, nil
}

// loadResult is what one closed-loop run observed.
type loadResult struct {
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
	// ms holds per-operation latencies in milliseconds by op kind; a sweep
	// contributes its latency divided by its grid size (ms per point).
	ms [4][]float64
	// observed holds, per lane, what the first goldenOps operations returned.
	observed [][]goldenEntry
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
	for k := range r.ms {
		r.ms[k] = append(r.ms[k], o.ms[k]...)
	}
}

// loadSpec configures one closed-loop run.
type loadSpec struct {
	base    string
	scripts []script
	// hot holds the set-up responses plan_hot replies must byte-equal.
	hot *hotExpect
	// wantWarm requires every replan to be answered by a warm planner.
	wantWarm bool
	// golden, when non-nil, pins the first operations of each lane.
	golden [][]goldenEntry
	// keep, when non-nil, receives every reply (set-up reads values from
	// them); the reply's body is only valid during the call.
	keep func(lane, idx int, rp reply)
}

// runLoad drives the lanes from clientCount closed-loop clients until d has
// elapsed (d = 0: until every lane's script ends). Client c owns lanes c,
// c+clients, … and serves them in turn.
func runLoad(ctx context.Context, spec loadSpec, d time.Duration) *loadResult {
	clients := clientCount()
	total := &loadResult{observed: make([][]goldenEntry, len(spec.scripts))}
	parts := make([]*loadResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		parts[c] = &loadResult{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := parts[c]
			hc := newClient(spec.base)
			defer hc.close()
			var mine []int
			for l := c; l < len(spec.scripts); l += clients {
				mine = append(mine, l)
			}
			counts := make([]int, len(spec.scripts))
			for turn := 0; len(mine) > 0; turn++ {
				if ctx.Err() != nil || (d > 0 && !time.Now().Before(deadline)) {
					return
				}
				slot := turn % len(mine)
				lane := mine[slot]
				o, ok := spec.scripts[lane].next()
				if !ok {
					mine = append(mine[:slot], mine[slot+1:]...)
					continue
				}
				idx := counts[lane]
				counts[lane]++
				res.attempted++
				t0 := time.Now()
				rp, err := hc.post(o)
				lat := time.Since(t0)
				if err != nil {
					res.fail("%s: transport: %v", o.kind, err)
					continue
				}
				ms := float64(lat) / float64(time.Millisecond)
				if o.kind == opSweep {
					ms /= float64(o.points)
				}
				res.ms[o.kind] = append(res.ms[o.kind], ms)
				if spec.keep != nil {
					spec.keep(lane, idx, rp)
				}
				modeled, err := checkReply(o, rp, spec.hot, spec.wantWarm)
				if err != nil {
					res.fail("lane %d op %d: %v", lane, idx, err)
				}
				if idx < goldenOps {
					total.observed[lane] = append(total.observed[lane], goldenEntry{Kind: o.kind.String(), Status: rp.status, ModeledTotalSec: modeled})
					if err == nil && spec.golden != nil && lane < len(spec.golden) && idx < len(spec.golden[lane]) {
						if gerr := checkGolden(spec.golden[lane][idx], o.kind.String(), rp.status, modeled); gerr != nil {
							res.fail("lane %d op %d: %v", lane, idx, gerr)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// quantile returns the q-quantile of xs by linear interpolation; xs is sorted
// in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
