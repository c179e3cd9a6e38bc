package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// CheckFiles parses and type-checks one package from explicit file paths,
// resolving imports through imp. It is the loading primitive shared by the
// fixture runner and the go vet driver (cmd/adapipevet).
func CheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
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
