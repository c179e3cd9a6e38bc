package request

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"adapipe/internal/baseline"
	"adapipe/internal/core"
)

func tinyReq() PlanRequest {
	return PlanRequest{Model: "tiny", TP: 1, PP: 4, DP: 1, SeqLen: 2048, GlobalBatch: 8}
}

func TestNormalizeAppliesDefaults(t *testing.T) {
	n, err := tinyReq().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != 1 || n.Cluster != "a" || n.Method != "AdaPipe" || n.MicroBatch != 1 || n.TinyLayers != 8 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	// Idempotent.
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if again != n {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*PlanRequest)
		want string
	}{
		{"version", func(r *PlanRequest) { r.Version = 2 }, "unsupported schema version"},
		{"model", func(r *PlanRequest) { r.Model = "bert" }, "unknown model"},
		{"no model", func(r *PlanRequest) { r.Model = "" }, "model is required"},
		{"cluster", func(r *PlanRequest) { r.Cluster = "c" }, "unknown cluster"},
		{"method", func(r *PlanRequest) { r.Method = "MagicPipe" }, "unknown method"},
		{"strategy", func(r *PlanRequest) { r.PP = 0 }, "must be >= 1"},
		{"seq", func(r *PlanRequest) { r.SeqLen = 0 }, "seq_len"},
		{"divisibility", func(r *PlanRequest) { r.GlobalBatch = 7; r.DP = 2; r.TP = 1 }, "not divisible"},
		{"tiny layers on gpt3", func(r *PlanRequest) { r.Model = "gpt3"; r.TinyLayers = 4 }, "tiny_layers"},
		// One request must not make the daemon allocate without bound.
		{"tiny layers cap", func(r *PlanRequest) { r.TinyLayers = maxTinyLayers + 1 }, "tiny_layers"},
		{"scheduled micro-batches cap", func(r *PlanRequest) { r.PP = 2; r.GlobalBatch = maxScheduledMicroBatches/2 + 1 }, "micro-batches"},
		{"scheduled micro-batches cap, dp and micro batch", func(r *PlanRequest) { r.DP = 2; r.MicroBatch = 2; r.GlobalBatch = 1 << 20 }, "micro-batches"},
		// Past the token cap the profile's byte terms would wrap int64.
		{"micro-batch tokens cap", func(r *PlanRequest) { r.SeqLen = maxMicroBatchTokens + 1 }, "tokens"},
		{"micro-batch tokens cap, micro batch", func(r *PlanRequest) { r.MicroBatch = 2; r.SeqLen = maxMicroBatchTokens/2 + 1 }, "tokens"},
		// 2^62+2^61 where int is 64-bit: its bytes wrapped to a negative peak.
		{"micro-batch tokens cap, wrapping seq_len", func(r *PlanRequest) { r.PP = 2; r.SeqLen = 3 << (bits.UintSize - 3) }, "tokens"},
	}
	for _, c := range cases {
		r := tinyReq()
		c.mut(&r)
		if _, err := r.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

// TestNormalizeAdmitsCapEdges: the two size caps admit their own edges and
// the largest request bench/ sends (TestNormalizeRejects has one past each).
func TestNormalizeAdmitsCapEdges(t *testing.T) {
	for _, r := range []PlanRequest{
		{Model: "tiny", TinyLayers: maxTinyLayers, TP: 1, PP: 4, DP: 1, SeqLen: 2048, GlobalBatch: 8},
		{Model: "tiny", TP: 1, PP: 2, DP: 1, SeqLen: 2048, GlobalBatch: maxScheduledMicroBatches / 2},
		{Model: "gpt3", TP: 2, PP: 32, DP: 1, SeqLen: 8192, GlobalBatch: 2048},
		{Model: "tiny", TP: 1, PP: 2, DP: 1, SeqLen: maxMicroBatchTokens / 4, GlobalBatch: 8, MicroBatch: 4},
		{Model: "gpt3", TP: 8, PP: 8, DP: 1, SeqLen: 32768, GlobalBatch: 32},
	} {
		if _, err := r.Normalize(); err != nil {
			t.Errorf("%+v: %v", r, err)
		}
	}
}

func TestParsePlanRequestStrict(t *testing.T) {
	good := []byte(`{"model":"tiny","tp":1,"pp":4,"dp":1,"seq_len":2048,"global_batch":8}`)
	r, err := ParsePlanRequest(good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Method != "AdaPipe" {
		t.Fatalf("parsed request not normalized: %+v", r)
	}
	if _, err := ParsePlanRequest([]byte(`{"model":"tiny","tpp":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePlanRequest(append(good, []byte(`{"more":true}`)...)); err == nil {
		t.Fatal("trailing JSON accepted")
	}
	if _, err := ParsePlanRequest(append(good, []byte(`garbage`)...)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestCanonicalIsRepresentationFree pins the core cache-identity property:
// field order, whitespace and elided defaults must not change the canonical
// bytes or the hash.
func TestCanonicalIsRepresentationFree(t *testing.T) {
	a, err := ParsePlanRequest([]byte(`{"model":"tiny","tp":1,"pp":4,"dp":1,"seq_len":2048,"global_batch":8}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePlanRequest([]byte(`{
		"global_batch": 8, "seq_len": 2048,
		"dp": 1, "pp": 4, "tp": 1,
		"micro_batch": 1, "method": "AdaPipe", "cluster": "a",
		"tiny_layers": 8, "model": "tiny", "version": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical bytes differ:\n%s\n%s", ca, cb)
	}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb || len(ha) != 64 {
		t.Fatalf("hashes differ or malformed: %s vs %s", ha, hb)
	}
	// Keys must come out sorted.
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(ca))
	dec.Token() // {
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := tok.(string); ok {
			keys = append(keys, k)
			var v any
			dec.Decode(&v)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("canonical keys not sorted: %v", keys)
		}
	}
}

func TestHashSeparatesDifferentSearches(t *testing.T) {
	base := tinyReq()
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	muts := []func(*PlanRequest){
		func(r *PlanRequest) { r.PP = 2 },
		func(r *PlanRequest) { r.SeqLen = 4096 },
		func(r *PlanRequest) { r.Method = "DAPPLE-Full" },
		func(r *PlanRequest) { r.Cluster = "b" },
		func(r *PlanRequest) { r.GlobalBatch = 16 },
		func(r *PlanRequest) { r.TinyLayers = 6 },
	}
	for i, mut := range muts {
		r := base
		mut(&r)
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == h0 {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

// TestNewPlannerMatchesPositionalPath proves the request-driven constructor
// and the classic positional path build the same search: byte-identical plans.
func TestNewPlannerMatchesPositionalPath(t *testing.T) {
	req := PlanRequest{Model: "gpt3", Cluster: "a", TP: 8, PP: 8, DP: 1, SeqLen: 16384, GlobalBatch: 32}
	pl, err := req.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := req.ModelConfig()
	cl, _ := req.ClusterConfig()
	opts, _ := req.Options()
	pl2, err := core.NewPlanner(cfg, cl, req.Strategy(), req.TrainingConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pl2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(p1)
	j2, _ := json.Marshal(p2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("request-driven plan differs from positional plan:\n%s\n%s", j1, j2)
	}
}

// TestResolveMatchesGetters ties the program's one resolution path to the
// exported getters bench/ still calls one by one: over every model and every
// method, Resolve equals the four getters field by field, and Evaluate equals
// baseline.EvaluateContext on the getters' outputs.
func TestResolveMatchesGetters(t *testing.T) {
	bases := []PlanRequest{
		{Model: "tiny", TP: 1, PP: 4, DP: 1, SeqLen: 16384, GlobalBatch: 8, MemoryReserve: 0.92},
		{Model: "gpt3", TP: 8, PP: 8, DP: 1, SeqLen: 16384, GlobalBatch: 32},
		{Model: "llama2", Cluster: "b", TP: 4, PP: 8, DP: 4, SeqLen: 4096, GlobalBatch: 128},
	}
	for _, base := range bases {
		for _, m := range baseline.Methods() {
			req := base
			req.Method = m.Name
			t.Run(req.Model+"/"+m.Name, func(t *testing.T) {
				rs, err := req.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				meth, _ := req.MethodConfig()
				cfg, _ := req.ModelConfig()
				cl, _ := req.ClusterConfig()
				opts, _ := req.Options()
				n, _ := req.Normalize()
				want := Resolved{Request: n, Method: meth, Model: cfg, Cluster: cl,
					Strategy: req.Strategy(), Training: req.TrainingConfig(), Options: opts}
				if !reflect.DeepEqual(rs, want) {
					t.Fatalf("Resolve() = %+v\ngetters   = %+v", rs, want)
				}
				got, err := req.Evaluate(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				ref := baseline.EvaluateContext(context.Background(), meth, cfg, cl, req.Strategy(), req.TrainingConfig(), opts)
				if m.Name == "AdaPipe" && !got.Feasible() {
					t.Fatalf("AdaPipe infeasible (OOM %v, err %v): the comparison below would be vacuous", got.OOM, got.Err)
				}
				gj, _ := json.Marshal(got.Plan)
				rj, _ := json.Marshal(ref.Plan)
				if !bytes.Equal(gj, rj) || got.OOM != ref.OOM || fmt.Sprint(got.Err) != fmt.Sprint(ref.Err) ||
					!reflect.DeepEqual(got.Sim, ref.Sim) {
					t.Fatalf("Evaluate differs from EvaluateContext on the getters' outputs:\n%+v\n%+v", got, ref)
				}
			})
		}
	}
}

func TestPlanResponseRoundTrip(t *testing.T) {
	req := tinyReq()
	pl, err := req.NewPlanner()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewResponseEnvelope(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewPlanResponse(env, p)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlanResponse(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("response encoding not stable across a round trip")
	}
	wantHash, _ := req.Hash()
	if back.RequestHash != wantHash {
		t.Fatalf("request hash %s, want %s", back.RequestHash, wantHash)
	}
	planBytes, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Plan, planBytes) {
		t.Fatal("embedded plan bytes differ from the plan's own serialization")
	}
	if _, err := ParsePlanResponse([]byte(`{"version":99}`)); err == nil {
		t.Fatal("future response version accepted")
	}
}

func TestCanonicalizeJSONGeneric(t *testing.T) {
	in := []byte(`{"b": [2, 1, {"z": null, "a": true}], "a": "x", "c": 1.50}`)
	want := `{"a":"x","b":[2,1,{"a":true,"z":null}],"c":1.50}`
	got, err := CanonicalizeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
	// Stable under repetition.
	again, err := CanonicalizeJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("canonicalization not idempotent")
	}
}
