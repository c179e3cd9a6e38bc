package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// goldenFixture builds a small synthetic diagnostic set with fully
// deterministic positions, so the golden file pins the report shape without
// depending on real source files. The set covers a located finding from two
// different rules and a position-less analyzer failure.
func goldenFixture() (*token.FileSet, []Diagnostic) {
	fset := token.NewFileSet()
	f := fset.AddFile("/src/adapipe/internal/core/planner.go", -1, 1000)
	lines := make([]int, 20)
	for i := range lines {
		lines[i] = i * 50
	}
	f.SetLines(lines)
	pos := func(line, col int) token.Pos { return f.Pos((line-1)*50 + col - 1) }
	diags := []Diagnostic{
		{Pos: pos(3, 7), Analyzer: "maporder", Message: "range over map stageCosts has an order-dependent body"},
		{Pos: pos(12, 2), Analyzer: "detrand", Message: "time.Now reads the wall clock in a determinism-critical package"},
		{Pos: token.NoPos, Analyzer: "lockguard", Message: "analyzer failed: example failure"},
	}
	sortDiagnostics(fset, diags)
	return fset, diags
}

const goldenRoot = "/src/adapipe"

// checkGolden compares got against the named golden file; setting
// UPDATE_GOLDEN=1 rewrites the golden instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (rerun with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n-- got --\n%s\n-- want --\n%s", name, got, want)
	}
}

func TestSARIFGolden(t *testing.T) {
	fset, diags := goldenFixture()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, All(), diags, goldenRoot); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sarif.golden.json", buf.Bytes())
}

// TestReportsDeterministic asserts byte-identical output across repeated
// renders — the property CI diffing relies on.
func TestReportsDeterministic(t *testing.T) {
	fset, diags := goldenFixture()
	render := func() []byte {
		var s bytes.Buffer
		if err := WriteSARIF(&s, fset, All(), diags, goldenRoot); err != nil {
			t.Fatal(err)
		}
		return s.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("SARIF output differs between identical renders")
	}
}

// TestSARIFShape validates the emitted structure against the SARIF 2.1.0
// subset CI consumes: schema pin, one run, a rule per analyzer in All()
// order, and results whose ruleIndex agrees with ruleId.
func TestSARIFShape(t *testing.T) {
	fset, diags := goldenFixture()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, All(), diags, goldenRoot); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF is not valid JSON: %v", err)
	}
	if log.Schema != SARIFSchema || log.Version != SARIFVersion {
		t.Errorf("schema pin drifted: %q %q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != ToolName {
		t.Errorf("driver name %q, want %q", run.Tool.Driver.Name, ToolName)
	}
	all := All()
	if len(run.Tool.Driver.Rules) != len(all) {
		t.Fatalf("got %d rules, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(all))
	}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID != all[i].Name {
			t.Errorf("rules[%d] = %s, want %s (All() order)", i, r.ID, all[i].Name)
		}
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no short description", r.ID)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(diags))
	}
	for _, res := range run.Results {
		if res.Level != "error" {
			t.Errorf("result level %q, want error", res.Level)
		}
		if res.RuleIndex < 0 || res.RuleIndex >= len(all) || all[res.RuleIndex].Name != res.RuleID {
			t.Errorf("ruleIndex %d does not agree with ruleId %s", res.RuleIndex, res.RuleID)
		}
		for _, loc := range res.Locations {
			pl := loc.PhysicalLocation
			if pl.ArtifactLocation.URI != "internal/core/planner.go" {
				t.Errorf("URI %q not relativized against the root", pl.ArtifactLocation.URI)
			}
			if pl.ArtifactLocation.URIBaseID != "%SRCROOT%" {
				t.Errorf("uriBaseId %q, want %%SRCROOT%%", pl.ArtifactLocation.URIBaseID)
			}
			if pl.Region.StartLine <= 0 {
				t.Errorf("non-positive startLine %d", pl.Region.StartLine)
			}
		}
	}
}
