package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// LockGuard checks `// guarded by <mu>` field annotations: any struct field
// whose doc or line comment names a guarding mutex may only be read or
// written from a method of that struct while the named mutex is held on
// every path that reaches the access. The annotation convention documents
// the locking discipline in the one place it can't drift from — next to the
// field — and this analyzer turns the comment into a checked invariant.
//
// The analysis is a per-method, path-sensitive scan: Lock/RLock on the
// receiver's mutex raises the held depth, Unlock/RUnlock lowers it, a
// deferred Unlock keeps the mutex held for the rest of the body, and
// branches are merged conservatively — a branch that terminates (return,
// panic, break, continue, goto) does not leak its lock-state back into the
// fall-through path, so the common `if cached { mu.Unlock(); return }`
// pattern is understood. Function literals inherit the lock state at their
// definition point (the `add := func(...)` helpers defined inside a critical
// section), except goroutine bodies, which start unlocked — they run after
// the spawner may have released the lock.
//
// Scope limits, by design: only accesses through the method's receiver are
// checked (the guard is per-instance), and only methods in the annotated
// struct's package (cross-package readers of exported fields, like the
// Plan.Search stats snapshot, must be safe by publication discipline
// instead).
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "flags reads/writes of struct fields annotated `// guarded by <mu>` from " +
		"methods that do not hold the named mutex on a dominating path",
	SkipTests: true,
	Run:       runLockGuard,
}

// guardedByRx extracts the mutex name from an annotation comment.
var guardedByRx = regexp.MustCompile(`guarded by (\w+)`)

// guardedStruct records one annotated struct type.
type guardedStruct struct {
	fields  map[string]string // field name -> guarding mutex field name
	mutexes map[string]bool   // mutex field names present on the struct
}

func runLockGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvType := recvTypeName(fd)
			gs, ok := guards[recvType]
			if !ok {
				continue
			}
			var recvObj types.Object
			if names := fd.Recv.List[0].Names; len(names) > 0 && names[0].Name != "_" {
				recvObj = pass.TypesInfo.Defs[names[0]]
			}
			if recvObj == nil {
				continue
			}
			sc := &lockScan{pass: pass, gs: gs, recv: recvObj}
			sc.scanStmts(fd.Body.List, lockState{})
		}
	}
	return nil
}

// collectGuards parses the `// guarded by <mu>` annotations off every struct
// type declared in the package, validating that the named mutex is a
// sync.Mutex/sync.RWMutex field of the same struct.
func collectGuards(pass *Pass) map[string]*guardedStruct {
	guards := map[string]*guardedStruct{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				gs := &guardedStruct{fields: map[string]string{}, mutexes: map[string]bool{}}
				for _, field := range st.Fields.List {
					if isSyncType(pass.TypeOf(field.Type), "Mutex") || isSyncType(pass.TypeOf(field.Type), "RWMutex") {
						for _, name := range field.Names {
							gs.mutexes[name.Name] = true
						}
					}
					mu := annotationMutex(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						gs.fields[name.Name] = mu
					}
				}
				for fieldName, mu := range gs.fields {
					if !gs.mutexes[mu] {
						pass.Reportf(ts.Pos(),
							"field %s.%s is annotated `guarded by %s`, but %s is not a sync.Mutex/RWMutex field of the struct",
							ts.Name.Name, fieldName, mu, mu)
						delete(gs.fields, fieldName)
					}
				}
				if len(gs.fields) > 0 {
					guards[ts.Name.Name] = gs
				}
			}
		}
	}
	return guards
}

// annotationMutex extracts the guarding mutex name from a field's doc or
// trailing comment, or "" when unannotated.
func annotationMutex(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRx.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// recvTypeName returns the receiver's named type, stripping a pointer and the
// type-parameter list of a generic receiver (T[K] or T[K, V]).
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lockState maps a mutex field name to its held depth on the current path.
type lockState map[string]int

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// mergeMin folds another branch's exit state in: a mutex is held after the
// merge only if it is held on both paths.
func (st lockState) mergeMin(other lockState) {
	for k, v := range st {
		if ov := other[k]; ov < v {
			st[k] = ov
		}
	}
	for k := range other {
		if _, ok := st[k]; !ok {
			st[k] = 0
		}
	}
}

// lockScan walks one method body tracking the held-mutex state per path.
type lockScan struct {
	pass *Pass
	gs   *guardedStruct
	recv types.Object
}

// scanStmts processes a statement list under state st (mutated in place) and
// reports whether the list terminates abruptly (so callers discard st).
func (sc *lockScan) scanStmts(stmts []ast.Stmt, st lockState) bool {
	for _, s := range stmts {
		if sc.scanStmt(s, st) {
			return true
		}
	}
	return false
}

func (sc *lockScan) scanStmt(s ast.Stmt, st lockState) (terminated bool) {
	switch n := s.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if mu, kind := sc.recvMutexCall(call); mu != "" {
				sc.checkExpr(call.Fun, st) // the mu selector itself is never guarded
				switch kind {
				case "Lock", "RLock":
					st[mu]++
				case "Unlock", "RUnlock":
					if st[mu] > 0 {
						st[mu]--
					}
				}
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := sc.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					sc.checkExpr(call, st)
					return true
				}
			}
		}
		sc.checkExpr(n.X, st)
	case *ast.DeferStmt:
		if mu, kind := sc.recvMutexCall(n.Call); mu != "" && (kind == "Unlock" || kind == "RUnlock") {
			// A deferred Unlock releases at return; the mutex stays held for
			// the remainder of the body.
			return false
		}
		sc.checkExpr(n.Call, st)
	case *ast.GoStmt:
		// The goroutine runs after the spawner may have unlocked: its body
		// starts from a clean (unlocked) state.
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			sc.scanStmts(fl.Body.List, lockState{})
			for _, arg := range n.Call.Args {
				sc.checkExpr(arg, st)
			}
		} else {
			sc.checkExpr(n.Call, st)
		}
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			sc.checkExpr(e, st)
		}
		for _, e := range n.Lhs {
			sc.checkExpr(e, st)
		}
	case *ast.IncDecStmt:
		sc.checkExpr(n.X, st)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			sc.checkExpr(e, st)
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto: effects stay within the branch
	case *ast.IfStmt:
		if n.Init != nil {
			sc.scanStmt(n.Init, st)
		}
		sc.checkExpr(n.Cond, st)
		thenSt := st.clone()
		thenTerm := sc.scanStmts(n.Body.List, thenSt)
		switch e := n.Else.(type) {
		case nil:
			if !thenTerm {
				st.mergeMin(thenSt)
			}
		case *ast.BlockStmt:
			elseSt := st.clone()
			elseTerm := sc.scanStmts(e.List, elseSt)
			return sc.mergeBranches(st, []lockState{thenSt, elseSt}, []bool{thenTerm, elseTerm}, false)
		case *ast.IfStmt:
			elseSt := st.clone()
			elseTerm := sc.scanStmt(e, elseSt)
			return sc.mergeBranches(st, []lockState{thenSt, elseSt}, []bool{thenTerm, elseTerm}, false)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			sc.scanStmt(n.Init, st)
		}
		if n.Cond != nil {
			sc.checkExpr(n.Cond, st)
		}
		bodySt := st.clone()
		sc.scanStmts(n.Body.List, bodySt)
		if n.Post != nil {
			sc.scanStmt(n.Post, bodySt)
		}
		// The loop may run zero times: fall-through keeps the entry state.
	case *ast.RangeStmt:
		sc.checkExpr(n.X, st)
		bodySt := st.clone()
		sc.scanStmts(n.Body.List, bodySt)
	case *ast.SwitchStmt:
		if n.Init != nil {
			sc.scanStmt(n.Init, st)
		}
		if n.Tag != nil {
			sc.checkExpr(n.Tag, st)
		}
		return sc.scanClauses(n.Body, st, !hasDefaultClause(n.Body))
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			sc.scanStmt(n.Init, st)
		}
		sc.scanStmt(n.Assign, st)
		return sc.scanClauses(n.Body, st, !hasDefaultClause(n.Body))
	case *ast.SelectStmt:
		// A select always executes exactly one clause; there is no
		// fall-past-every-case path.
		return sc.scanClauses(n.Body, st, false)
	case *ast.BlockStmt:
		return sc.scanStmts(n.List, st)
	case *ast.LabeledStmt:
		return sc.scanStmt(n.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.checkExpr(v, st)
					}
				}
			}
		}
	case *ast.SendStmt:
		sc.checkExpr(n.Chan, st)
		sc.checkExpr(n.Value, st)
	}
	return false
}

// scanClauses scans each case body of a switch/select from the entry state
// and min-merges the non-terminating branches back into st; includeEntry
// additionally merges the entry state, for switches without a default where
// no case may match. Reports whether every path out terminates.
func (sc *lockScan) scanClauses(body *ast.BlockStmt, st lockState, includeEntry bool) bool {
	var exits []lockState
	var terms []bool
	for _, cl := range body.List {
		clSt := st.clone()
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				sc.checkExpr(e, clSt)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				sc.scanStmt(c.Comm, clSt)
			}
			stmts = c.Body
		}
		terms = append(terms, sc.scanStmts(stmts, clSt))
		exits = append(exits, clSt)
	}
	return sc.mergeBranches(st, exits, terms, includeEntry)
}

// hasDefaultClause reports whether a switch body contains a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// mergeBranches folds branch exit states into st: only branches that did not
// terminate contribute; includeEntry additionally merges the entry state (a
// switch with no matching case). Returns true — the statement terminates —
// when every path out is terminated and the entry path is excluded.
func (sc *lockScan) mergeBranches(st lockState, exits []lockState, terms []bool, includeEntry bool) bool {
	entry := st.clone()
	var live []lockState
	for i, ex := range exits {
		if !terms[i] {
			live = append(live, ex)
		}
	}
	if includeEntry {
		live = append(live, entry)
	}
	if len(live) == 0 {
		return true
	}
	for k := range st {
		delete(st, k)
	}
	for k, v := range live[0] {
		st[k] = v
	}
	for _, ex := range live[1:] {
		st.mergeMin(ex)
	}
	return false
}

// checkExpr reports guarded-field accesses through the receiver made while
// the guarding mutex is not held. Function literals inherit the current
// state (they are typically invoked inline within the critical section that
// defines them); their bodies are scanned once, here.
func (sc *lockScan) checkExpr(expr ast.Expr, st lockState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			sc.scanStmts(e.Body.List, st.clone())
			return false
		case *ast.SelectorExpr:
			base, ok := e.X.(*ast.Ident)
			if !ok || sc.pass.TypesInfo.Uses[base] != sc.recv {
				return true
			}
			mu, guarded := sc.gs.fields[e.Sel.Name]
			if guarded && st[mu] == 0 {
				sc.pass.Reportf(e.Pos(),
					"access to %s.%s without holding %s (field is annotated `guarded by %s`); "+
						"lock %s on every path that reaches this access",
					base.Name, e.Sel.Name, mu, mu, mu)
			}
		}
		return true
	})
}

// recvMutexCall recognizes recv.<mu>.<Lock|RLock|Unlock|RUnlock>() where
// <mu> is a mutex field of the receiver's annotated struct, returning the
// mutex field name and the method.
func (sc *lockScan) recvMutexCall(call *ast.CallExpr) (mu, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || sc.pass.TypesInfo.Uses[base] != sc.recv {
		return "", ""
	}
	if !sc.gs.mutexes[inner.Sel.Name] {
		return "", ""
	}
	return inner.Sel.Name, sel.Sel.Name
}
