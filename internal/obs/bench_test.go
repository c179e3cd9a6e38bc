package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteBenchJSONRoundTripAndDeterminism(t *testing.T) {
	report := BenchReport{
		Model:           "GPT-3 175B",
		Shape:           "L=194 p=8 n=32",
		GoMaxProcs:      8,
		Workers:         8,
		SpeedupParallel: 2.4,
		ReplanNsPerOp:   550_000,
		KnapsackRuns:    120,
		CacheHitRate:    0.93,
		Runs: []BenchRun{
			{Name: "PlanSearch/serial", Iterations: 30, NsPerOp: 41_000_000},
			{Name: "PlanSearch/parallel", Iterations: 72, NsPerOp: 17_000_000},
			{Name: "ReplanWithScale", Iterations: 20, NsPerOp: 55_000_000},
		},
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	if err := WriteBenchJSON(p1, []BenchReport{report}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSON(p2, []BenchReport{report}); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("same report serialized to different bytes")
	}
	if b1[len(b1)-1] != '\n' {
		t.Error("missing trailing newline")
	}
	reports, err := ReadBenchJSON(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("read %d reports back, want 1", len(reports))
	}
	back := reports[0]
	if back.SpeedupParallel != report.SpeedupParallel || len(back.Runs) != 3 ||
		back.Runs[1].Name != "PlanSearch/parallel" {
		t.Errorf("round trip mangled the report: %+v", back)
	}
	if back.ReplanNsPerOp != 550_000 {
		t.Errorf("ReplanNsPerOp round-tripped to %d, want 550000", back.ReplanNsPerOp)
	}
	if !bytes.Contains(b1, []byte(`"replan_ns_per_op": 550000`)) {
		t.Error("replan_ns_per_op missing from the serialized report")
	}
}

// TestReadBenchJSONSingleReport pins the fallback for files written before
// the suite ran at more than one GOMAXPROCS: one report object, no array.
func TestReadBenchJSONSingleReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old, err := json.Marshal(BenchReport{GoMaxProcs: 1, ReplanNsPerOp: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].GoMaxProcs != 1 || reports[0].ReplanNsPerOp != 7 {
		t.Errorf("single-report file read as %+v", reports)
	}
}

func TestWriteBenchJSONBadPath(t *testing.T) {
	if err := WriteBenchJSON(filepath.Join(t.TempDir(), "no", "such", "dir.json"), nil); err == nil {
		t.Error("write into a missing directory should fail")
	}
}
