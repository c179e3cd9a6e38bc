// Command adapipevet runs the AdaPipe lint suite (internal/analysis): seven
// analyzers enforcing planner determinism (maporder, floatcmp, detrand),
// pipeline and planner concurrency hygiene (pipesync, lockguard), context
// propagation (ctxprop) and error handling in the binaries (errcheckcmd).
// No finding can be suppressed: fix the code, or narrow the analyzer's rule
// or scope with a fixture case.
//
// Standalone (multichecker-style) usage — loads packages itself:
//
//	adapipevet ./...
//	adapipevet adapipe/internal/core
//	adapipevet -sarif -o adapipevet.sarif ./...
//
// Every analyzer runs, over each package's in-package _test.go files too.
// -sarif emits a SARIF 2.1.0 report (file URIs relative to the working
// directory, for CI code-scanning upload), byte-deterministic for a given
// tree; -o redirects it to a file; diagnostics still gate the exit status.
//
// Vet-tool (unitchecker-style) usage — driven by the go command, one
// type-checked compilation unit per invocation (-json is the go command's
// unitchecker wire format and belongs to this mode only):
//
//	go vet -vettool=$(which adapipevet) ./...
//
// Exit status: 0 when clean, 1 on a driver error, 2 when diagnostics were
// reported (matching go vet's convention).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adapipe/internal/analysis"
)

func main() {
	// The go command probes its vet tool before use: -V=full must print a
	// version line, -flags the tool's analyzer flags as JSON.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-V=full", "-V":
			fmt.Printf("%s version %s-%s\n", progName(), analysis.ToolName, analysis.ToolVersion)
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit the unitchecker wire format (vet-tool mode only; go vet -json passes it)")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 report (standalone mode only)")
	outPath := flag.String("o", "", "write the -sarif report to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adapipevet [flags] [packages]\n       adapipevet <unit>.cfg  (as go vet -vettool)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		if *sarifOut {
			fatal(fmt.Errorf("-sarif is a standalone-mode flag; the go vet driver consumes the wire format"))
		}
		os.Exit(unitcheck(args[0], *jsonOut))
	}
	if *jsonOut {
		fatal(fmt.Errorf("-json is the go vet driver's wire format; standalone reports are plain text or -sarif"))
	}
	os.Exit(standalone(args, *sarifOut, *outPath))
}

// standalone loads the named package patterns (default ./...) and runs the
// suite over all of them in one process.
func standalone(patterns []string, sarif bool, outPath string) int {
	analyzers := analysis.All()
	pkgs, err := analysis.Load("", patterns)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages matched %v", patterns))
	}
	fset := pkgs[0].Fset
	diags := analysis.Run(pkgs, analyzers)

	out := io.Writer(os.Stdout)
	closeOut := func() error { return nil }
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		out = f
		closeOut = f.Close
	}
	// Report file URIs are relative to the working directory — CI runs from
	// the module root, so uploads carry repo-relative paths.
	root, _ := os.Getwd()
	if sarif {
		if err := analysis.WriteSARIF(out, fset, analyzers, diags, root); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if err := closeOut(); err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// vetConfig is the JSON configuration the go command hands a -vettool for
// each compilation unit (see cmd/vet and unitchecker in x/tools; field
// names are part of the go command's contract).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one compilation unit described by a go vet config. It
// type-checks the unit's files against the export data the go command
// already built for the dependencies, so no package loading happens here.
func unitcheck(cfgPath string, jsonOut bool) int {
	analyzers := analysis.All()
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %v", cfgPath, err))
	}
	// The suite defines no cross-package facts, but the go command expects
	// the facts output file to exist either way.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0 // facts-only run for a dependency: nothing to report
	}

	applies := false
	for _, a := range analyzers {
		if a.Applies == nil || a.Applies(cfg.ImportPath) {
			applies = true
			break
		}
	}
	if !applies || len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := &exportDataImporter{
		fset: fset,
		cfg:  &cfg,
		base: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}).(types.ImporterFrom),
	}
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	if len(pkg.TypeErrors) > 0 && cfg.SucceedOnTypecheckFailure {
		return 0
	}
	diags := analysis.Run([]*analysis.Package{pkg}, analyzers)
	emit(fset, diags, jsonOut)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// exportDataImporter resolves imports through the vet config's ImportMap
// (source import path → canonical path) and the gc export data files the go
// command supplies in PackageFile.
type exportDataImporter struct {
	fset *token.FileSet
	cfg  *vetConfig
	base types.ImporterFrom
}

func (e *exportDataImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, e.cfg.Dir, 0)
}

func (e *exportDataImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if canonical, ok := e.cfg.ImportMap[path]; ok {
		path = canonical
	}
	return e.base.ImportFrom(path, dir, mode)
}

// emit prints diagnostics for the vet-tool mode: file:line:col: analyzer:
// message to stderr, or the unitchecker JSON wire format to stdout.
func emit(fset *token.FileSet, diags []analysis.Diagnostic, jsonOut bool) {
	if !jsonOut {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		return
	}
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]jsonDiag{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
			Posn:    fset.Position(d.Pos).String(),
			Message: d.Message,
		})
	}
	out, err := json.MarshalIndent(byAnalyzer, "", "\t")
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stdout.Write(append(out, '\n')); err != nil {
		fatal(err)
	}
}

func progName() string {
	return filepath.Base(os.Args[0])
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", progName(), err)
	os.Exit(1)
}
