package request

import (
	"encoding/json"
	"reflect"
	"slices"
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

// TestSweepAxisTableMatchesSweepAxes holds the axis table to SweepAxes: one
// row per field, in field order, under the field's JSON name. Each row reads
// its own field alone, and writes the PlanRequest field of the same JSON name
// and no other.
func TestSweepAxisTableMatchesSweepAxes(t *testing.T) {
	jsonName := func(f reflect.StructField) string {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return name
	}
	at, pt := reflect.TypeOf(SweepAxes{}), reflect.TypeOf(PlanRequest{})
	if at.NumField() != len(sweepAxes) {
		t.Fatalf("SweepAxes has %d fields, the axis table %d rows", at.NumField(), len(sweepAxes))
	}
	for i, row := range sweepAxes {
		f := at.Field(i)
		if name := jsonName(f); row.name != name {
			t.Errorf("row %d is %q, field %d of SweepAxes is %q", i, row.name, i, name)
			continue
		}
		v := reflect.New(f.Type.Elem()).Elem()
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		default:
			t.Fatalf("axis %q has values of kind %s", row.name, v.Kind())
		}
		var a SweepAxes
		reflect.ValueOf(&a).Elem().Field(i).Set(reflect.Append(reflect.MakeSlice(f.Type, 0, 1), v))
		for j, other := range sweepAxes {
			want := -1
			if i == j {
				want = 1
			}
			if got := other.len(&a); got != want {
				t.Errorf("with only %q set, row %q has length %d, want %d", row.name, other.name, got, want)
			}
		}
		target, ok := -1, false
		for k := 0; k < pt.NumField(); k++ {
			if jsonName(pt.Field(k)) == row.name {
				target, ok = k, true
			}
		}
		if !ok {
			t.Errorf("PlanRequest has no field named %q", row.name)
			continue
		}
		var p PlanRequest
		row.set(&a, 0, &p)
		field := reflect.ValueOf(&p).Elem().Field(target)
		if !field.Equal(v) {
			t.Errorf("row %q set %s = %v, want %v", row.name, pt.Field(target).Name, field, v)
		}
		field.SetZero()
		if p != (PlanRequest{}) {
			t.Errorf("row %q writes more than its own field: %+v", row.name, p)
		}
	}
}

// TestSweepGridCannotWrap: four axes of 65536 values multiply to 2^64, which
// a plain int64 product wraps to 0 — under the cap. The grid saturates
// instead, and the sweep is rejected.
func TestSweepGridCannotWrap(t *testing.T) {
	long := make([]int, 1<<16)
	s := tinySweep()
	s.Axes.TP, s.Axes.PP, s.Axes.DP, s.Axes.SeqLen = long, long, long, long
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "cap is 256") {
		t.Fatalf("a 2^64-point grid: Normalize = %v, want the cap error", err)
	}
}

// expandReference is Expand as it was written before the axis table: one
// loop per axis, nested in expansion order.
func expandReference(r SweepRequest) ([]PlanRequest, error) {
	n, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	var points []PlanRequest
	for _, cl := range orBase(n.Axes.Cluster, n.Base.Cluster) {
		for _, m := range orBase(n.Axes.Method, n.Base.Method) {
			for _, tp := range orBase(n.Axes.TP, n.Base.TP) {
				for _, pp := range orBase(n.Axes.PP, n.Base.PP) {
					for _, dp := range orBase(n.Axes.DP, n.Base.DP) {
						for _, sl := range orBase(n.Axes.SeqLen, n.Base.SeqLen) {
							for _, gb := range orBase(n.Axes.GlobalBatch, n.Base.GlobalBatch) {
								for _, mb := range orBase(n.Axes.MicroBatch, n.Base.MicroBatch) {
									for _, mr := range orBase(n.Axes.MemoryReserve, n.Base.MemoryReserve) {
										pt := n.Base
										pt.Cluster, pt.Method = cl, m
										pt.TP, pt.PP, pt.DP = tp, pp, dp
										pt.SeqLen, pt.GlobalBatch, pt.MicroBatch = sl, gb, mb
										pt.MemoryReserve = mr
										points = append(points, pt)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

func orBase[T any](axis []T, base T) []T {
	if axis == nil {
		return []T{base}
	}
	return axis
}

// FuzzSweepExpandMatchesReference holds the odometer Expand to the nested
// loops: for any choice of present, absent and empty axes (bit a of present
// and the 2-bit length at bits 2a of lens give axis a), both yield the same
// points in the same order, or the same error.
func FuzzSweepExpandMatchesReference(f *testing.F) {
	f.Add(uint16(1<<6|1<<8), uint32(2<<12|2<<16), []byte{8, 16, 1, 2})
	f.Add(uint16(0), uint32(0), []byte{})
	f.Add(uint16(0x1ff), uint32(0x3ffff), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint16(1<<2), uint32(0), []byte{1})
	f.Add(uint16(1|1<<1|1<<4|1<<7), uint32(3|2<<2|3<<8|1<<14), []byte{0, 255, 7})
	f.Fuzz(func(t *testing.T, present uint16, lens uint32, vals []byte) {
		if len(vals) == 0 {
			vals = []byte{1}
		}
		next := 0
		val := func() byte { next++; return vals[(next-1)%len(vals)] }
		names := [][]string{{"a", "b", "b-large", "c"}, {"AdaPipe", "DAPPLE-Full", "Chimera-Non", "?"}}
		var ax SweepAxes
		for a := range sweepAxes {
			if present&(1<<a) == 0 {
				continue
			}
			n := int(lens>>(2*a)) & 3
			strs, ints, floats := make([]string, n), make([]int, n), make([]float64, n)
			for k := 0; k < n; k++ {
				v := val()
				strs[k], ints[k], floats[k] = names[min(a, 1)][v%4], int(v), float64(v)/256
			}
			switch a {
			case 0:
				ax.Cluster = strs
			case 1:
				ax.Method = strs
			case 2:
				ax.TP = ints
			case 3:
				ax.PP = ints
			case 4:
				ax.DP = ints
			case 5:
				ax.SeqLen = ints
			case 6:
				ax.GlobalBatch = ints
			case 7:
				ax.MicroBatch = ints
			case 8:
				ax.MemoryReserve = floats
			}
		}
		r := SweepRequest{Base: tinyReq(), Axes: ax}
		got, gerr := r.Expand()
		want, werr := expandReference(r)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("Expand error %v, reference %v", gerr, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Expand gave %d points, reference %d:\n%+v\n%+v", len(got), len(want), got, want)
		}
	})
}
