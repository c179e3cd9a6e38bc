package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` iteration over a map in packages whose output
// must be reproducible. Go randomizes map iteration order per run, so any
// map range whose body has an order-dependent effect (appending values to a
// slice, writing formatted output, accumulating floats, sending on a
// channel) makes plans, serialized JSON and rendered tables differ between
// identical runs — exactly what the repro's exact-equality tests forbid.
//
// A range is accepted without sorting when its body is provably
// order-insensitive: it only writes map entries, collects the keys for a
// later sort (`keys = append(keys, k)`), accumulates integers, or tracks a
// guarded extremum. Everything else must iterate a sorted key slice instead.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags order-dependent iteration over maps in determinism-critical packages " +
		"(planner, serializer, recompute, schedule, profile, trace, public API); " +
		"sort the keys first",
	Applies: pathMatcher(
		[]string{"adapipe"}, // the public API package renders plan tables
		"adapipe/internal/core",
		"adapipe/internal/recompute",
		"adapipe/internal/partition",
		"adapipe/internal/schedule",
		"adapipe/internal/profile",
		"adapipe/internal/trace",
		"adapipe/internal/request", // canonical JSON: the daemon's cache identity
		"adapipe/internal/baseline",
		"adapipe/internal/experiments",
		"maporder", // fixture packages
	),
	SkipTests: true,
	Run:       runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitiveBody(pass, rng) {
				return true
			}
			pass.Reportf(rng.Pos(),
				"range over map %s has an order-dependent body; map iteration order is randomized — "+
					"collect and sort the keys first to keep plans byte-for-byte reproducible",
				exprString(pass.Fset, rng.X))
			return true
		})
	}
	return nil
}

// orderInsensitiveBody reports whether every statement in the range body has
// an effect that commutes across iterations, so iteration order cannot leak
// into the result.
func orderInsensitiveBody(pass *Pass, rng *ast.RangeStmt) bool {
	keyObj := rangeVarObj(pass, rng.Key)
	var check func(stmts []ast.Stmt, guarded bool) bool
	var checkStmt func(s ast.Stmt, guarded bool) bool
	checkStmt = func(s ast.Stmt, guarded bool) bool {
		switch st := s.(type) {
		case *ast.AssignStmt:
			return orderInsensitiveAssign(pass, st, rng, keyObj, guarded)
		case *ast.IncDecStmt:
			// count[k]++ / n-- over integers commutes.
			return isIntegral(pass.TypeOf(st.X))
		case *ast.ExprStmt:
			// delete(m, k) commutes (distinct keys).
			if call, ok := st.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						return true
					}
				}
			}
			return false
		case *ast.IfStmt:
			// Guarded updates (the min/max pattern): accept when every
			// branch is itself order-insensitive under the guard.
			if st.Init != nil && !checkStmt(st.Init, guarded) {
				return false
			}
			if !check(st.Body.List, true) {
				return false
			}
			switch e := st.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return check(e.List, true)
			case *ast.IfStmt:
				return checkStmt(e, true)
			}
			return false
		case *ast.RangeStmt:
			// A nested loop over a slice/array/channel keeps the outer
			// iteration order-insensitive as long as its own body is;
			// assignments to outer-iteration locals remain local. A nested
			// map range is judged at its own visit and conservatively
			// treated as order-sensitive here.
			if t := pass.TypeOf(st.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
			return check(st.Body.List, guarded)
		case *ast.ForStmt:
			if st.Init != nil && !checkStmt(st.Init, guarded) {
				return false
			}
			if st.Post != nil && !checkStmt(st.Post, guarded) {
				return false
			}
			return check(st.Body.List, guarded)
		case *ast.DeclStmt:
			// Local declarations introduce iteration-local objects.
			return true
		case *ast.BlockStmt:
			return check(st.List, guarded)
		case *ast.BranchStmt:
			return st.Tok == token.CONTINUE
		}
		return false
	}
	check = func(stmts []ast.Stmt, guarded bool) bool {
		for _, s := range stmts {
			if !checkStmt(s, guarded) {
				return false
			}
		}
		return true
	}
	return check(rng.Body.List, false)
}

// orderInsensitiveAssign accepts assignments whose effect commutes:
//
//   - writes into a map element (m[k] = v, set building),
//   - integer accumulation (n += c and friends; float accumulation is
//     rejected because FP addition does not commute bit-for-bit),
//   - the key-collection idiom `keys = append(keys, k)` that feeds a
//     subsequent sort,
//   - assignment to a variable declared inside the loop body itself (an
//     iteration-local temp cannot carry state across iterations),
//   - inside a guard, plain assignment to a scalar that does not involve
//     the key (extremum tracking; recording the argmax key would be
//     order-dependent on ties and stays flagged).
func orderInsensitiveAssign(pass *Pass, st *ast.AssignStmt, rng *ast.RangeStmt, keyObj types.Object, guarded bool) bool {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Lhs) != len(st.Rhs) {
			return false
		}
		for i, lhs := range st.Lhs {
			if isBlank(lhs) {
				continue
			}
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				if t := pass.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						continue
					}
				}
				return false
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return false
			}
			if isKeyAppend(pass, id, st.Rhs[i], keyObj) {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil &&
				rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
				continue // iteration-local temp
			}
			if guarded && !usesObject(pass, st.Rhs[i], keyObj) {
				continue
			}
			return false
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		for _, lhs := range st.Lhs {
			if !isIntegral(pass.TypeOf(lhs)) {
				return false
			}
		}
		return true
	}
	return false
}

// isKeyAppend recognizes `dst = append(dst, k)` where k is the range key
// variable and dst is the assignee.
func isKeyAppend(pass *Pass, dst *ast.Ident, rhs ast.Expr, keyObj types.Object) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || keyObj == nil {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[first] != pass.TypesInfo.ObjectOf(dst) {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && pass.TypesInfo.Uses[arg] == keyObj
}

// usesObject reports whether expr references obj.
func usesObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// exprString renders a (small) expression for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "<expr>"
	}
	return b.String()
}
