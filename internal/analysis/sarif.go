package analysis

import (
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"
	"strings"
)

// ToolName and ToolVersion identify the suite in the SARIF report and in the
// -V probe the go command sends a vet tool.
const (
	ToolName    = "adapipevet"
	ToolVersion = "2.0"

	// SARIFSchema and SARIFVersion pin the report format. The emitted shape
	// follows SARIF 2.1.0: one run, a tool.driver carrying one reportingDescriptor
	// per analyzer, and one result per diagnostic with a physical location.
	SARIFSchema  = "https://docs.oasis-open.org/sarif/sarif/v2.1.0/os/schemas/sarif-schema-2.1.0.json"
	SARIFVersion = "2.1.0"
)

// The SARIF object model, restricted to the subset the suite emits. Field
// order is fixed by these struct definitions, diagnostics arrive pre-sorted
// from Run, and rules follow All() order — so the report bytes are a pure
// function of the diagnostics and the tool version (TestReportsDeterministic
// asserts byte equality, the golden file pins the shape).
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifMessage `json:"shortDescription"`
	FullDescription      sarifMessage `json:"fullDescription"`
	DefaultConfiguration sarifLevel   `json:"defaultConfiguration"`
}

type sarifLevel struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log. analyzers supplies
// the rule table (normally All(), in suite order); root, when non-empty,
// relativizes file URIs against the module root so the report is portable
// across checkouts. Output is byte-deterministic for a given input.
func WriteSARIF(w io.Writer, fset *token.FileSet, analyzers []*Analyzer, diags []Diagnostic, root string) error {
	rules := make([]sarifRule, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifMessage{Text: shortDoc(a.Doc)},
			FullDescription:      sarifMessage{Text: a.Doc},
			DefaultConfiguration: sarifLevel{Level: "error"},
		}
		index[a.Name] = i
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		res := sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
		}
		if i, ok := index[d.Analyzer]; ok {
			res.RuleIndex = i
		}
		if d.Pos.IsValid() {
			pos := fset.Position(d.Pos)
			res.Locations = []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       relURI(root, pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: pos.Line, StartColumn: pos.Column},
				},
			}}
		}
		results = append(results, res)
	}
	log := sarifLog{
		Schema:  SARIFSchema,
		Version: SARIFVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: ToolName, Version: ToolVersion, Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// relURI relativizes filename against root and normalizes to forward
// slashes; files outside root (or an empty root) keep their path unchanged
// apart from slash normalization.
func relURI(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			filename = rel
		}
	}
	return filepath.ToSlash(filename)
}

// shortDoc returns the first sentence of an analyzer doc string.
func shortDoc(doc string) string {
	if i := strings.IndexAny(doc, ";("); i > 0 {
		doc = doc[:i]
	}
	return strings.TrimSpace(doc)
}
