package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"adapipe/internal/request"
)

// planDoc is the part of a plan's stable JSON encoding the checks read.
type planDoc struct {
	PP              int     `json:"pp"`
	ModeledTotalSec float64 `json:"modeled_total_sec"`
	Stages          []struct {
		Stage     int   `json:"stage"`
		LayerLo   int   `json:"layer_lo"`
		LayerHi   int   `json:"layer_hi"`
		PeakBytes int64 `json:"peak_bytes"`
	} `json:"stages"`
}

// shapeFacts are the two facts about a request the plan check needs: the
// length of the model's layer sequence and the device's memory capacity.
type shapeFacts struct {
	layers   int
	capacity int64
}

func factsOf(req request.PlanRequest) (shapeFacts, error) {
	cfg, err := req.ModelConfig()
	if err != nil {
		return shapeFacts{}, err
	}
	cl, err := req.ClusterConfig()
	if err != nil {
		return shapeFacts{}, err
	}
	return shapeFacts{layers: len(cfg.LayerSequence()), capacity: cl.Device.MemCapacity}, nil
}

// checkPlan verifies a plan against the paper's structural invariants without
// trusting the planner: pp stages that tile [0, L) contiguously, every stage's
// reported peak inside device memory, and a finite positive modeled iteration
// time. It returns that time.
func checkPlan(raw json.RawMessage, req request.PlanRequest, enforceMemory bool) (float64, error) {
	var p planDoc
	if err := json.Unmarshal(raw, &p); err != nil {
		return 0, fmt.Errorf("decoding plan: %w", err)
	}
	facts, err := factsOf(req)
	if err != nil {
		return 0, err
	}
	if p.PP != req.PP || len(p.Stages) != req.PP {
		return 0, fmt.Errorf("plan has %d stages (pp %d), request has pp %d", len(p.Stages), p.PP, req.PP)
	}
	at := 0
	for i, s := range p.Stages {
		if s.Stage != i || s.LayerLo != at || s.LayerHi <= s.LayerLo {
			return 0, fmt.Errorf("stage %d = [%d,%d) index %d does not continue the tiling at layer %d", i, s.LayerLo, s.LayerHi, s.Stage, at)
		}
		if enforceMemory && s.PeakBytes > facts.capacity {
			return 0, fmt.Errorf("stage %d peak %d bytes exceeds device capacity %d", i, s.PeakBytes, facts.capacity)
		}
		at = s.LayerHi
	}
	if at != facts.layers {
		return 0, fmt.Errorf("stages cover %d layers, model has %d", at, facts.layers)
	}
	if !(p.ModeledTotalSec > 0) || math.IsInf(p.ModeledTotalSec, 0) {
		return 0, fmt.Errorf("modeled_total_sec = %v, want finite and > 0", p.ModeledTotalSec)
	}
	return p.ModeledTotalSec, nil
}

// hotExpect holds the set-up responses plan_hot replies must byte-equal, and
// their (already checked) modeled iteration times.
type hotExpect struct {
	bodies  [][]byte
	modeled []float64
}

// reply is what a client saw for one op.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// checkReply judges one reply. It returns the op's modeled iteration time
// (for a sweep, the best-ranked point's) for the golden file.
func checkReply(o op, rp reply, hot *hotExpect, wantWarm bool) (modeled float64, err error) {
	if rp.status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", o.kind, rp.status, truncate(rp.body, 200))
	}
	switch o.kind {
	case opPlan:
		if o.hot >= 0 {
			// The set-up response was checked in full; a byte-equal repeat
			// needs no second decode (and the client shares the daemon's
			// cores, so it should not pay for one).
			if got := rp.header.Get("X-Adapipe-Cache"); got != "hit" {
				return 0, fmt.Errorf("plan_hot reply has X-Adapipe-Cache %q, want hit", got)
			}
			if !bytes.Equal(rp.body, hot.bodies[o.hot]) {
				return 0, fmt.Errorf("plan_hot reply differs from the set-up response of request %d", o.hot)
			}
			return hot.modeled[o.hot], nil
		}
		pr, err := request.ParsePlanResponse(rp.body)
		if err != nil {
			return 0, err
		}
		return checkPlan(pr.Plan, o.req, true)
	case opSimulate:
		var sr request.SimulateResponse
		if err := json.Unmarshal(rp.body, &sr); err != nil {
			return 0, fmt.Errorf("decoding simulate response: %w", err)
		}
		if !(sr.IterSec > 0) || math.IsInf(sr.IterSec, 0) {
			return 0, fmt.Errorf("simulate iter_sec = %v, want finite and > 0", sr.IterSec)
		}
		// Non-adaptive baselines are planned past device memory on purpose
		// (the response flags them oom), so only AdaPipe's own plans must fit.
		return checkPlan(sr.Plan, o.req, o.req.Method == "AdaPipe")
	case opReplan:
		rr, err := request.ParseReplanResponse(rp.body)
		if err != nil {
			return 0, err
		}
		if rr.Adopted && !(rr.NewIterSec <= rr.OldIterSec) {
			return 0, fmt.Errorf("replan adopted a slower plan: new %v > old %v", rr.NewIterSec, rr.OldIterSec)
		}
		if got := rp.header.Get("X-Adapipe-Replan"); wantWarm && got != "warm" {
			return 0, fmt.Errorf("replan in the timed window has X-Adapipe-Replan %q, want warm", got)
		}
		return checkPlan(rr.Plan, o.req, true)
	case opSweep:
		sr, err := request.ParseSweepResponse(rp.body)
		if err != nil {
			return 0, err
		}
		if len(sr.Points) != o.points || len(sr.Ranking) != o.points {
			return 0, fmt.Errorf("sweep returned %d points, %d ranked, want %d feasible", len(sr.Points), len(sr.Ranking), o.points)
		}
		for _, pt := range sr.Points {
			if pt.Error != nil {
				return 0, fmt.Errorf("sweep point %d failed: %s", pt.Index, pt.Error.Message)
			}
			if _, err := checkPlan(pt.Plan, pt.Request, true); err != nil {
				return 0, fmt.Errorf("sweep point %d: %w", pt.Index, err)
			}
		}
		if !sort.SliceIsSorted(sr.Ranking, func(a, b int) bool {
			return sr.Points[sr.Ranking[a]].IterSec < sr.Points[sr.Ranking[b]].IterSec
		}) {
			return 0, fmt.Errorf("sweep ranking %v is not sorted by iter_sec", sr.Ranking)
		}
		return sr.Points[sr.Ranking[0]].IterSec, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// goldenEntry pins one scripted operation of seed 1.
type goldenEntry struct {
	Kind            string  `json:"kind"`
	Status          int     `json:"status"`
	ModeledTotalSec float64 `json:"modeled_total_sec"`
}

// goldenOps is how many leading operations of each lane the golden file pins:
// 32 per lane, 64 per daemon script.
const goldenOps = 64 / lanes

// goldenFile maps workload → lane → the first goldenOps operations.
type goldenFile map[string][][]goldenEntry

// checkGolden compares one observed operation with its pinned entry. The
// status must match; the modeled iteration time may only stay or improve — a
// better plan is not a failed output, a worse one is.
func checkGolden(want goldenEntry, kind string, status int, modeled float64) error {
	if want.Kind != kind || want.Status != status {
		return fmt.Errorf("golden: got %s status %d, pinned %s status %d", kind, status, want.Kind, want.Status)
	}
	if modeled > want.ModeledTotalSec*(1+1e-9) {
		return fmt.Errorf("golden: modeled_total_sec %v is worse than the pinned %v", modeled, want.ModeledTotalSec)
	}
	return nil
}
