// Command adapipevet runs the AdaPipe lint suite (internal/analysis): seven
// analyzers enforcing planner determinism (maporder, floatcmp, detrand),
// pipeline and planner concurrency hygiene (pipesync, lockguard), context
// propagation (ctxprop) and error handling in the binaries (errcheckcmd).
// No finding can be suppressed: fix the code, or narrow the analyzer's rule
// or scope with a fixture case.
//
// The go command drives it as a vet tool, one compilation unit per
// invocation, with the dependencies' export data already built:
//
//	go build -o bin/adapipevet ./cmd/adapipevet
//	go vet -vettool=$PWD/bin/adapipevet ./...
//
// Every analyzer runs over each package in its scope, in-package tests
// included; an external test package (package x_test) is a unit of its own.
// -json (what go vet -json passes) selects the go command's JSON wire format,
// which reports findings without failing. Run any other way, with package
// patterns say, it prints usage and exits 1.
//
// Exit status: 0 when clean, 1 on a driver error or a unit that does not
// type-check, 2 when diagnostics were reported. go vet exits 1 on either.
package main

import (
	"encoding/json"
	"errors"
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

// version is what the -V=full probe reports; the go command keys its cache
// of facts-only runs on that line.
const version = "adapipevet-2.1"

// jsonUsage describes -json, the tool's one flag.
const jsonUsage = "emit the go command's JSON wire format (go vet -json passes it)"

func main() {
	// The go command probes its vet tool before use: -V=full must print a
	// version line, -flags the tool's analyzer flags as JSON.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-V=full", "-V":
			fmt.Printf("%s version %s\n", progName(), version)
			return
		case "-flags":
			// go vet accepts on its command line only the flags listed here.
			out, err := json.Marshal([]struct {
				Name  string
				Bool  bool
				Usage string
			}{{"json", true, jsonUsage}})
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
			return
		}
	}

	jsonOut := flag.Bool("json", false, jsonUsage)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which %s) [packages]\n", progName())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || !strings.HasSuffix(flag.Arg(0), ".cfg") {
		flag.Usage()
		os.Exit(1)
	}
	os.Exit(unitcheck(flag.Arg(0), *jsonOut))
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

	if len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := &exportDataImporter{
		cfg: &cfg,
		base: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}).(types.ImporterFrom),
	}
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err == nil {
		err = errors.Join(pkg.TypeErrors...)
	}
	if err != nil {
		// A unit that does not type-check fails, as under go vet's own
		// tool, unless the go command leaves the errors to the compiler.
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	diags := analysis.Run([]*analysis.Package{pkg}, analysis.All())
	if jsonOut {
		// As under go vet's own tool, -json reports findings without failing.
		printJSON(fset, cfg.ID, diags)
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// exportDataImporter resolves imports through the vet config's ImportMap
// (source import path → canonical path) and the gc export data files the go
// command supplies in PackageFile.
type exportDataImporter struct {
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

// printJSON writes diagnostics to stdout in the unitchecker JSON wire
// format: unit ID → analyzer → findings.
func printJSON(fset *token.FileSet, id string, diags []analysis.Diagnostic) {
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
	tree := map[string]map[string][]jsonDiag{}
	if len(diags) > 0 {
		tree[id] = byAnalyzer
	}
	out, err := json.MarshalIndent(tree, "", "\t")
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
