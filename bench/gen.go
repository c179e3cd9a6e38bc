package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"adapipe/internal/request"
)

// The four workloads. Names are stable: BENCHMARK.json, the README and later
// issues cite them.
const (
	wlPlanCold    = "plan_cold"
	wlPlanHot     = "plan_hot"
	wlReplanSweep = "replan_sweep"
	wlTrain1F1B   = "train_1f1b"
)

var workloadNames = []string{wlPlanCold, wlPlanHot, wlReplanSweep, wlTrain1F1B}

// lanes is the number of independent request scripts of a daemon workload.
// It is fixed so that scripts (and the golden file) do not depend on the
// machine; the closed-loop clients share the lanes among them.
const lanes = 2

// shape is one hand-verified row of the request table: AdaPipe plans every
// seq_len in [minSeq, maxSeq] (step seqStep) under it, and all four simulate
// methods answer 200 — with DAPPLE-Full inside device memory — up to simMax.
// Feasibility is monotone in seq_len (activation bytes grow with it, the
// budget does not), so the table lists only the largest verified value.
type shape struct {
	model, cluster string
	tp, pp         int
	maxSeq, simMax int
}

const (
	minSeq  = 1024
	seqStep = 64
)

var shapes = []shape{
	{"gpt3", "a", 8, 8, 32768, 32768},
	{"gpt3", "a", 4, 16, 16384, 16384},
	{"gpt3", "a", 2, 32, 8192, 8192},
	{"gpt3", "b", 8, 16, 4096, 4096},
	{"gpt3", "b", 8, 32, 32768, 16384},
	{"llama2", "a", 8, 8, 32768, 32768},
	{"llama2", "a", 4, 16, 32768, 32768},
	{"llama2", "a", 2, 32, 32768, 16384},
	{"llama2", "a", 4, 8, 32768, 32768},
	{"llama2", "a", 8, 4, 32768, 32768},
	{"llama2", "a", 2, 16, 32768, 16384},
	{"llama2", "a", 1, 32, 8192, 8192},
	{"llama2", "b", 8, 8, 32768, 16384},
	{"llama2", "b", 4, 16, 8192, 8192},
	{"llama2", "b", 2, 32, 4096, 2048},
	{"llama2", "b", 8, 16, 32768, 32768},
	{"llama2", "b", 4, 32, 32768, 16384},
	{"llama2", "b", 8, 32, 32768, 32768},
}

// globalBatches are the batch sizes requests draw from; a shape uses the
// multiples of its pp (at dp = micro_batch = 1 the micro-batch count is the
// global batch, 1F1B needs at least pp of them and Chimera a multiple of pp).
var globalBatches = []int{32, 48, 64, 96, 128, 192, 256}

// simMethods is the rotation of /v1/simulate methods in plan_cold.
var simMethods = []string{"AdaPipe", "DAPPLE-Full", "Even Partitioning", "Chimera-Full"}

// rng is splitmix64: tiny, seedable, and independent of the Go release, so a
// seed names the same script everywhere.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

type opKind int

const (
	opPlan opKind = iota
	opSimulate
	opReplan
	opSweep
)

func (k opKind) String() string {
	return [...]string{"plan", "simulate", "replan", "sweep"}[k]
}

func (k opKind) path() string { return "/v1/" + k.String() }

// op is one scripted request plus what the checks need to judge its reply.
type op struct {
	kind opKind
	body []byte
	// req is the plan request the op is about (the base for replan/sweep).
	req request.PlanRequest
	// hot is the index of the pre-planned request a plan_hot op repeats; -1
	// otherwise.
	hot int
	// points is the grid size of a sweep op.
	points int
}

func (s shape) request(method string, seq, gb int) request.PlanRequest {
	return request.PlanRequest{
		Version: request.Version, Model: s.model, Cluster: s.cluster, Method: method,
		TP: s.tp, PP: s.pp, DP: 1, SeqLen: seq, GlobalBatch: gb, MicroBatch: 1,
	}
}

func (s shape) batch(r *rng) int {
	for {
		if gb := globalBatches[r.intn(len(globalBatches))]; gb%s.pp == 0 {
			return gb
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of this package are marshalled
	}
	return b
}

// script yields the operations of one lane, in order. next returns false when
// the lane has no operation left.
type script interface {
	next() (op, bool)
}

// coldScript is a lane of plan_cold: every request names a (shape, seq_len)
// pair no other request of the run uses, so each is a response-cache miss in a
// cost family of its own. Shapes are visited round-robin (the lanes half a
// round apart) and every fifth operation is a simulate, so the latency mix —
// which shape and endpoint set — is the same for every seed; the seed picks
// seq_len and global_batch.
type coldScript struct {
	r      *rng
	lane   int
	n      int
	at     int
	used   map[[2]int]bool
	simRot int
}

func newColdScript(seed uint64, lane int) *coldScript {
	c := &coldScript{r: newRNG(seed, uint64(lane)), lane: lane, at: lane * len(shapes) / lanes, used: map[[2]int]bool{}}
	// Set-up already planned the quality requests; keep their families out.
	for _, si := range qualityShapes {
		c.used[[2]int{si, shapes[si].simMax / 2}] = true
	}
	return c
}

func (c *coldScript) next() (op, bool) {
	// Every fifth operation is a simulate; its method rotates.
	sim := c.n%5 == 4
	c.n++
	for tries := 0; tries < 4*len(shapes); tries++ {
		si := c.at % len(shapes)
		c.at++
		s := shapes[si]
		hi := s.maxSeq
		if sim {
			hi = s.simMax
		}
		// Lanes take alternate seq_len slots, so they never collide.
		slots := (hi-minSeq)/seqStep/lanes + 1
		slot := c.r.intn(slots)
		seq := minSeq + (slot*lanes+c.lane)*seqStep
		if seq > hi || c.used[[2]int{si, seq}] {
			continue
		}
		c.used[[2]int{si, seq}] = true
		method := "AdaPipe"
		kind := opPlan
		if sim {
			method = simMethods[c.simRot%len(simMethods)]
			c.simRot++
			kind = opSimulate
		}
		req := s.request(method, seq, s.batch(c.r))
		return op{kind: kind, body: mustJSON(req), req: req, hot: -1}, true
	}
	return op{}, false
}

// hotSet is the working set of plan_hot: hotRequests distinct plan requests,
// each with a few pre-rendered bodies that differ in key order and
// whitespace but canonicalize to the same request.
const (
	hotRequests = 64
	hotVariants = 8
	zipfS       = 1.1
)

// shortHotRequests is the working set of the -short smoke pass, which has no
// time to pre-plan 64 requests.
const shortHotRequests = 8

type hotSet struct {
	reqs   []request.PlanRequest
	bodies [][][]byte
	cdf    []float64
}

// newHotSet draws the working set from the cheap shapes (pp <= 8), so that
// pre-planning it stays a small part of a run.
func newHotSet(seed uint64, size int) *hotSet {
	r := newRNG(seed, 100)
	var cheap []shape
	for _, s := range shapes {
		if s.pp <= 8 {
			cheap = append(cheap, s)
		}
	}
	h := &hotSet{}
	used := map[[2]int]bool{}
	for len(h.reqs) < size {
		si := len(h.reqs) % len(cheap)
		s := cheap[si]
		seq := minSeq + r.intn((s.maxSeq-minSeq)/seqStep+1)*seqStep
		if used[[2]int{si, seq}] {
			continue
		}
		used[[2]int{si, seq}] = true
		req := s.request("AdaPipe", seq, s.batch(r))
		h.reqs = append(h.reqs, req)
		variants := make([][]byte, hotVariants)
		for v := range variants {
			variants[v] = scrambledBody(req, r)
		}
		h.bodies = append(h.bodies, variants)
	}
	var sum float64
	for k := 0; k < size; k++ {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		h.cdf = append(h.cdf, sum)
	}
	for k := range h.cdf {
		h.cdf[k] /= sum
	}
	return h
}

// scrambledBody renders req with shuffled key order and random insignificant
// whitespace.
func scrambledBody(req request.PlanRequest, r *rng) []byte {
	fields := [][2]string{
		{"version", strconv.Itoa(req.Version)},
		{"model", strconv.Quote(req.Model)},
		{"cluster", strconv.Quote(req.Cluster)},
		{"method", strconv.Quote(req.Method)},
		{"tp", strconv.Itoa(req.TP)},
		{"pp", strconv.Itoa(req.PP)},
		{"dp", strconv.Itoa(req.DP)},
		{"seq_len", strconv.Itoa(req.SeqLen)},
		{"global_batch", strconv.Itoa(req.GlobalBatch)},
		{"micro_batch", strconv.Itoa(req.MicroBatch)},
	}
	r.shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	ws := func() string { return [...]string{"", " ", "\n", "  ", "\t"}[r.intn(5)] }
	var b bytes.Buffer
	b.WriteString("{" + ws())
	for i, f := range fields {
		if i > 0 {
			b.WriteString("," + ws())
		}
		fmt.Fprintf(&b, "%q%s:%s%s%s", f[0], ws(), ws(), f[1], ws())
	}
	b.WriteString("}" + ws())
	return b.Bytes()
}

type hotScript struct {
	h *hotSet
	r *rng
}

func (s *hotScript) next() (op, bool) {
	k := min(sort.SearchFloat64s(s.h.cdf, s.r.float()), len(s.h.cdf)-1)
	return op{kind: opPlan, body: s.h.bodies[k][s.r.intn(hotVariants)], req: s.h.reqs[k], hot: k}, true
}

// trainingRuns are the four "training runs" of replan_sweep; lane l owns
// runs 2l and 2l+1. They are fixed so that replan and sweep cost — which the
// run's shape sets — does not vary with the seed.
var trainingRuns = []request.PlanRequest{
	shape{"gpt3", "a", 8, 8, 0, 0}.request("AdaPipe", 16384, 32), // one family > the default cost store
	shape{"llama2", "a", 4, 16, 0, 0}.request("AdaPipe", 8192, 64),
	shape{"gpt3", "b", 8, 16, 0, 0}.request("AdaPipe", 4096, 32),
	shape{"llama2", "b", 8, 8, 0, 0}.request("AdaPipe", 8192, 32),
}

const (
	replansPerSweep = 40
	sweepPoints     = 4
)

// replanScript is a lane of replan_sweep: 40 replans alternating over the
// lane's two runs, each moving one or two stages of that run's scale vector
// by one 0.05 step inside [1.0, 1.5], then one 4-point global_batch sweep on
// any of the four bases.
type replanScript struct {
	r      *rng
	lane   int
	n      int
	scales [2][]int // scale per stage in steps of 0.05 above 1.0
}

func newReplanScript(seed uint64, lane int) *replanScript {
	s := &replanScript{r: newRNG(seed, 200+uint64(lane)), lane: lane}
	for i := range s.scales {
		s.scales[i] = make([]int, trainingRuns[2*lane+i].PP)
	}
	return s
}

func (s *replanScript) next() (op, bool) {
	i := s.n % (replansPerSweep + 1)
	s.n++
	if i == replansPerSweep {
		base := trainingRuns[s.r.intn(len(trainingRuns))]
		gbs := make([]int, sweepPoints)
		for k := range gbs {
			gbs[k] = 32 + 8*s.r.intn((2048-32)/8+1)
		}
		sw := request.SweepRequest{Version: request.Version, Base: base, Axes: request.SweepAxes{GlobalBatch: gbs}}
		return op{kind: opSweep, body: mustJSON(sw), req: base, hot: -1, points: sweepPoints}, true
	}
	run := i % 2
	req := trainingRuns[2*s.lane+run]
	steps := s.scales[run]
	for k := 1 + s.r.intn(2); k > 0; k-- {
		st := s.r.intn(len(steps))
		d := 1 - 2*s.r.intn(2)
		if steps[st]+d < 0 || steps[st]+d > 10 {
			d = -d
		}
		steps[st] += d
	}
	scale := make([]float64, len(steps))
	for st, v := range steps {
		scale[st] = 1 + float64(v)*0.05
	}
	rp := request.ReplanRequest{Version: request.Version, Request: req, Scale: scale}
	return op{kind: opReplan, body: mustJSON(rp), req: req, hot: -1}, true
}

// newScripts builds the lanes of a daemon workload.
func newScripts(workload string, seed uint64, hot *hotSet) []script {
	out := make([]script, lanes)
	for l := range out {
		switch workload {
		case wlPlanCold:
			out[l] = newColdScript(seed, l)
		case wlPlanHot:
			out[l] = &hotScript{h: hot, r: newRNG(seed, 300+uint64(l))}
		case wlReplanSweep:
			out[l] = newReplanScript(seed, l)
		}
	}
	return out
}

// qualityShapes index the 12 fixed shapes of the plan-quality metric: the
// first 12 that simulate up to seq_len 8192, each taken at half its simMax so
// that DAPPLE-Full fits with room.
var qualityShapes = func() []int {
	var out []int
	for si, s := range shapes {
		if s.simMax >= 8192 && len(out) < 12 {
			out = append(out, si)
		}
	}
	return out
}()

func qualityRequests() []request.PlanRequest {
	var out []request.PlanRequest
	for _, si := range qualityShapes {
		s := shapes[si]
		out = append(out, s.request("AdaPipe", s.simMax/2, max(32, s.pp)))
	}
	return out
}
