// Package analysis is a dependency-free static-analysis framework and lint
// suite for the AdaPipe repro. Its API mirrors the relevant subset of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// analyzers can be ported to the upstream driver verbatim if the dependency
// ever becomes available; here everything is built on the standard library
// (go/ast, go/types, go/importer) so the suite works in hermetic builds.
//
// The suite exists because the planner's two-level DP must be bit-for-bit
// deterministic (tests assert exact plan equality, and serialized plans are
// diffed across runs) and because the 1F1B executor is multi-goroutine
// channel code where races corrupt schedule comparisons silently. Seven
// analyzers enforce the invariants (DESIGN.md "Static analysis" records the
// defect in this repo's history that each one caught):
//
//   - maporder:    order-dependent iteration over Go maps in packages whose
//     output must be reproducible (planner, serializer, request, trace, ...).
//   - floatcmp:    exact ==/!= between floating-point cost/time values in
//     the solver packages, where an epsilon compare is required.
//   - pipesync:    goroutine hygiene in the pipeline executors —
//     WaitGroup.Add inside the spawned goroutine, channel sends while holding
//     a mutex, and naked (non-select) channel ops in goroutine bodies.
//   - errcheckcmd: dropped error returns in cmd/ and examples/.
//   - ctxprop:     dropped context propagation in the search/serving
//     libraries — context.Background()/TODO() where a ctx is in scope,
//     calls bypassing an existing Context-variant, blocking loops that
//     never check ctx.
//   - lockguard:   reads/writes of fields annotated `// guarded by <mu>`
//     from methods that do not hold the named mutex on a dominating path.
//   - detrand:     nondeterminism sources (time.Now/Since/Until, called or
//     taken as a func value, global math/rand, %p formatting) in the plan-
//     and hash-producing packages.
//
// There is no suppression mechanism. A finding is fixed in the code; a false
// positive is fixed by narrowing the analyzer's rule or scope, with a fixture
// case that pins the narrowing.
//
// Two drivers run the suite (cmd/adapipevet): Load type-checks packages from
// source for the standalone mode, CheckFiles takes one compilation unit from
// the go command for `go vet -vettool`. The only report format besides plain
// text is SARIF (WriteSARIF); every run applies every analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and SARIF rules.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Applies reports whether the analyzer runs on the given package import
	// path. A nil Applies runs everywhere.
	Applies func(pkgPath string) bool
	// SkipTests excludes _test.go files from the pass. The determinism
	// analyzers set it: tests assert exact plan equality on purpose, and
	// the order of test-failure output is not part of the reproducible
	// surface. Fixture files live under testdata and are unaffected.
	SkipTests bool
	// Run executes the pass and reports findings via pass.Report*.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the problem.
	Message string
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps positions for the package's files.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for the syntax.
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("adapipe/internal/core").
	Path string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources (including in-package _test files when
	// the loader was asked for them).
	Files []*ast.File
	// Types is the checked package.
	Types *types.Package
	// Info is the type information for Files.
	Info *types.Info
	// TypeErrors holds soft type-checking errors; analysis proceeds on a
	// best-effort basis when non-empty.
	TypeErrors []error
}

// Run executes each applicable analyzer over each package and returns all
// diagnostics in (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			files := pkg.Files
			if a.SkipTests {
				files = nil
				for _, f := range pkg.Files {
					name := pkg.Fset.Position(f.Pos()).Filename
					if !strings.HasSuffix(name, "_test.go") {
						files = append(files, f)
					}
				}
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				pass.diags = append(pass.diags, Diagnostic{
					Pos:      token.NoPos,
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer failed: %v", err),
				})
			}
			out = append(out, pass.diags...)
		}
	}
	if len(pkgs) > 0 {
		sortDiagnostics(pkgs[0].Fset, out)
	}
	return out
}

// sortDiagnostics orders diags by position then analyzer name.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// All returns the full lint suite in stable order. The order is part of the
// reporting contract: diagnostics tie-break on analyzer name, SARIF rule
// indices follow this slice, and TestAllOrderPinned asserts it — append new
// analyzers at the end.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, FloatCmp, PipeSync, ErrCheckCmd,
		CtxProp, LockGuard, DetRand,
	}
}

// pathMatcher builds an Applies func: the analyzer runs on packages whose
// import path equals one of exact, or contains one of fragments as a
// slash-delimited segment substring. Every analyzer also matches fixture
// packages whose path contains its own name, so analysistest fixtures are
// in scope by construction.
func pathMatcher(exact []string, fragments ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, e := range exact {
			if pkgPath == e {
				return true
			}
		}
		for _, f := range fragments {
			if strings.Contains(pkgPath, f) {
				return true
			}
		}
		return false
	}
}
