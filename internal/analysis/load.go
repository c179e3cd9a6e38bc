package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir         string
	ImportPath  string
	Name        string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Standard    bool
	Error       *struct{ Err string }
}

// Load enumerates the packages matching patterns with the go command, parses
// their sources and type-checks them against a source importer, so the suite
// needs no pre-built export data and no third-party loader. dir is the working
// directory for package resolution (empty: the process's). Each unit includes
// its in-package _test.go files; external (package foo_test) files are not
// loaded. All returned packages share one FileSet.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var metas []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		metas = append(metas, lp)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range metas {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		files := append([]string{}, lp.GoFiles...)
		files = append(files, lp.CgoFiles...)
		files = append(files, lp.TestGoFiles...)
		if len(files) == 0 {
			continue
		}
		var paths []string
		for _, f := range files {
			paths = append(paths, filepath.Join(lp.Dir, f))
		}
		pkg, err := checkFiles(fset, lp.ImportPath, paths, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// CheckFiles parses and type-checks one package from explicit file paths,
// resolving imports from source. It is the loading primitive shared by Load,
// the fixture runner and the unitchecker driver.
func CheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	return checkFiles(fset, path, filenames, imp)
}

func checkFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var softErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		Path:       path,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: softErrs,
	}, nil
}
