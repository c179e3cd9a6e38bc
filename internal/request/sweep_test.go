package request

import (
	"encoding/json"
	"strings"
	"testing"
)

func tinySweep() SweepRequest {
	return SweepRequest{Base: tinyReq(), Axes: SweepAxes{GlobalBatch: []int{8, 16}}}
}

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	e := NewErrorResponse(ErrCodeInfeasible, "no feasible partition", 422)
	data := e.Encode()
	if data[len(data)-1] != '\n' {
		t.Fatal("encoded envelope lacks trailing newline")
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	inner, ok := generic["error"].(map[string]any)
	if !ok {
		t.Fatalf("envelope top-level key is not \"error\": %s", data)
	}
	for _, k := range []string{"code", "message", "status"} {
		if _, ok := inner[k]; !ok {
			t.Errorf("envelope missing %q: %s", k, data)
		}
	}
	back, err := ParseErrorResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Err.Code != ErrCodeInfeasible || back.Err.Status != 422 || back.Err.Message != "no feasible partition" {
		t.Fatalf("round trip lost fields: %+v", back.Err)
	}
	if _, err := ParseErrorResponse([]byte(`{"error":{"message":"x"}}`)); err == nil {
		t.Fatal("ParseErrorResponse accepted an envelope with no code")
	}
	if _, err := ParseErrorResponse([]byte(`{"detail":"x"}`)); err == nil {
		t.Fatal("ParseErrorResponse accepted a non-envelope body")
	}
}

func TestResponseEnvelopeFields(t *testing.T) {
	n, err := tinyReq().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewResponseEnvelope(n)
	if err != nil {
		t.Fatal(err)
	}
	resp := PlanResponse{ResponseEnvelope: env, Plan: []byte(`{"modeled_total_sec":1}`)}
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	if generic["version"] != float64(Version) {
		t.Errorf("version = %v, want %d", generic["version"], Version)
	}
	wantHash, err := n.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if generic["request_hash"] != wantHash {
		t.Errorf("request_hash = %v, want %s", generic["request_hash"], wantHash)
	}
	if generic["method"] != n.Method {
		t.Errorf("method = %v, want %s", generic["method"], n.Method)
	}
	// Envelope keys serialize before the payload: field order is part of the
	// byte-stable contract.
	idx := func(key string) int { return strings.Index(string(data), `"`+key+`"`) }
	if !(idx("version") < idx("request_hash") && idx("request_hash") < idx("method") && idx("method") < idx("plan")) {
		t.Errorf("envelope fields out of order: %s", data)
	}
}

func TestMemoryReserveNormalizeAndHash(t *testing.T) {
	// Zero reserve keeps the pre-field canonical bytes: existing cache keys
	// survive the schema addition.
	base, err := tinyReq().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(base), "memory_reserve") {
		t.Fatalf("zero memory_reserve leaked into canonical form: %s", base)
	}

	r := tinyReq()
	r.MemoryReserve = 0.3
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.MemoryReserve != 0.3 {
		t.Fatalf("reserve not preserved: %+v", n)
	}
	withReserve, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tinyReq().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if withReserve == plain {
		t.Fatal("memory_reserve does not separate request identities")
	}
	opts, err := n.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MemoryReserve != 0.3 {
		t.Fatalf("Options did not apply the reserve: %+v", opts)
	}

	for _, bad := range []float64{-0.1, 1.0, 2.5} {
		r := tinyReq()
		r.MemoryReserve = bad
		if _, err := r.Normalize(); err == nil || !strings.Contains(err.Error(), "memory_reserve") {
			t.Errorf("reserve %g: want memory_reserve error, got %v", bad, err)
		}
	}
}

func TestSweepNormalize(t *testing.T) {
	n, err := tinySweep().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != Version || n.Base.Method != "AdaPipe" {
		t.Fatalf("normalization incomplete: %+v", n)
	}

	// Present-but-empty axis is rejected; a nil axis is fine.
	s := tinySweep()
	s.Axes.TP = []int{}
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), `axis "tp" is empty`) {
		t.Errorf("empty axis: got %v", err)
	}

	// Grid cap.
	s = tinySweep()
	s.Axes.GlobalBatch = make([]int, 20)
	s.Axes.SeqLen = make([]int, 20)
	for i := range s.Axes.GlobalBatch {
		s.Axes.GlobalBatch[i] = 8 * (i + 1)
		s.Axes.SeqLen[i] = 128 * (i + 1)
	}
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "cap is 256") {
		t.Errorf("oversized grid: got %v", err)
	}

	// Negative TopK.
	s = tinySweep()
	s.TopK = -1
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "top_k") {
		t.Errorf("negative top_k: got %v", err)
	}

	// Invalid base is reported as the sweep base.
	s = tinySweep()
	s.Base.Model = ""
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "sweep base") {
		t.Errorf("bad base: got %v", err)
	}
}

func TestSweepExpandOrder(t *testing.T) {
	s := tinySweep()
	s.Axes.GlobalBatch = []int{8, 16}
	s.Axes.MemoryReserve = []float64{0.1, 0.2}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	// memory_reserve is the innermost axis: it varies fastest.
	want := []struct {
		gb int
		mr float64
	}{{8, 0.1}, {8, 0.2}, {16, 0.1}, {16, 0.2}}
	for i, w := range want {
		if pts[i].GlobalBatch != w.gb || pts[i].MemoryReserve != w.mr {
			t.Errorf("point %d = (gb=%d, mr=%g), want (gb=%d, mr=%g)",
				i, pts[i].GlobalBatch, pts[i].MemoryReserve, w.gb, w.mr)
		}
	}
	// Non-swept base fields carry through.
	for i, p := range pts {
		if p.Model != "tiny" || p.PP != 4 || p.Method != "AdaPipe" {
			t.Errorf("point %d lost base fields: %+v", i, p)
		}
	}
}

func TestSweepExpandNoAxes(t *testing.T) {
	s := SweepRequest{Base: tinyReq()}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("axis-free sweep expanded to %d points, want 1 (the base)", len(pts))
	}
	nb, err := tinyReq().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0] != nb {
		t.Fatalf("single point %+v differs from normalized base %+v", pts[0], nb)
	}
}

func TestParseSweepRequestStrict(t *testing.T) {
	good := []byte(`{"base":{"model":"tiny","tp":1,"pp":4,"dp":1,"seq_len":2048,"global_batch":8},"axes":{"global_batch":[8,16]}}`)
	s, err := ParseSweepRequest(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != Version || len(s.Axes.GlobalBatch) != 2 {
		t.Fatalf("parsed sweep: %+v", s)
	}
	if _, err := ParseSweepRequest([]byte(`{"base":{"model":"tiny","tp":1,"pp":4,"dp":1,"seq_len":2048,"global_batch":8},"axis":{}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSweepRequest(append(good, []byte(`{"more":1}`)...)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ParseSweepRequest([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSweepHashSeparates(t *testing.T) {
	a, err := tinySweep().Hash()
	if err != nil {
		t.Fatal(err)
	}
	s := tinySweep()
	s.Axes.GlobalBatch = []int{8, 32}
	b, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different grids share one hash")
	}
	// Hash is stable across re-normalization.
	n, err := tinySweep().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := n.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Fatal("hash changed after normalization")
	}
}

func TestPlanIterSec(t *testing.T) {
	got, err := PlanIterSec([]byte(`{"modeled_total_sec":2.75,"stages":[]}`))
	if err != nil || got != 2.75 {
		t.Fatalf("PlanIterSec = %g, %v", got, err)
	}
	if _, err := PlanIterSec([]byte(`{broken`)); err == nil {
		t.Fatal("PlanIterSec accepted broken JSON")
	}
}

func TestSweepResponseRoundTrip(t *testing.T) {
	s, err := tinySweep().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	resp := SweepResponse{
		ResponseEnvelope: ResponseEnvelope{Version: Version, RequestHash: hash, Method: s.Base.Method},
		Points: []SweepPointResult{
			{Index: 0, Request: s.Base, RequestHash: "h0", IterSec: 1.5, Plan: []byte(`{"modeled_total_sec":1.5}`)},
			{Index: 1, Request: s.Base, Error: &ErrorInfo{Code: ErrCodeInfeasible, Message: "nope", Status: 422}},
		},
		Ranking: []int{0},
		Stats:   SweepStats{Points: 2, Planned: 1, Failed: 1},
	}
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSweepResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.RequestHash != hash || len(back.Points) != 2 || back.Points[1].Error.Code != ErrCodeInfeasible {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if _, err := ParseSweepResponse([]byte(`{"version":99}`)); err == nil {
		t.Fatal("version skew accepted")
	}
}
