package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PipeSync enforces goroutine hygiene in the pipeline executors
// (internal/train, internal/sim), where a silent race corrupts the schedule
// comparison against the DAPPLE-style baselines instead of crashing. Three
// patterns are flagged (loop-variable capture is not one of them: go.mod pins
// go 1.22, where every iteration has its own variable, and go vet's
// loopclosure is the upstream check for older language versions):
//
//  1. WaitGroup.Add called inside the spawned goroutine itself, which races
//     with the parent's Wait;
//  2. a channel send while a mutex is held (between Lock and Unlock, or
//     after a deferred Unlock), which blocks the pipeline with the lock
//     taken as soon as the peer stage also needs it;
//  3. a naked (non-select) channel send or receive inside a goroutine body.
//     In the 1F1B executor a stage that dies leaves its peers blocked on
//     such an op forever — the deadlock the cancellation protocol exists to
//     prevent — so every stage-goroutine channel op must be a select case
//     alongside the iteration's done channel.
var PipeSync = &Analyzer{
	Name: "pipesync",
	Doc: "flags WaitGroup.Add inside the spawned goroutine, channel sends while " +
		"holding a mutex, and naked (non-select) channel ops in goroutine bodies " +
		"in the pipeline executor packages",
	Applies: pathMatcher(
		nil,
		"adapipe/internal/train",
		"adapipe/internal/sim",
		"pipesync", // fixture packages
	),
	Run: runPipeSync,
}

func runPipeSync(pass *Pass) error {
	for _, file := range pass.Files {
		checkGoStmts(pass, file)
		checkSendUnderMutex(pass, file)
	}
	return nil
}

// checkGoStmts applies the goroutine-body rules to every `go func(){...}()`,
// nested ones included.
func checkGoStmts(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		if st, ok := n.(*ast.GoStmt); ok {
			if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
				checkWaitGroupAdd(pass, fl)
				checkNakedChannelOps(pass, fl)
			}
		}
		return true
	})
}

// checkWaitGroupAdd flags wg.Add calls lexically inside a goroutine body:
// if the parent reaches Wait before the goroutine is scheduled, the Add
// races the Wait and the iteration can return early.
func checkWaitGroupAdd(pass *Pass, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != fl {
			return false // nested goroutine bodies get their own GoStmt visit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if !isSyncType(pass.TypeOf(sel.X), "WaitGroup") {
			return true
		}
		pass.Reportf(call.Pos(),
			"WaitGroup.Add inside the spawned goroutine races the parent's Wait; "+
				"call Add before the go statement")
		return true
	})
}

// checkNakedChannelOps flags channel sends and receives in a goroutine body
// that are not select-case communications. A peer goroutine that panics (or
// is canceled) will never complete the matching op, so a naked op blocks the
// goroutine forever and the parent's wg.Wait with it; the executor's
// cancellation discipline requires every such op to be a select case paired
// with the iteration's done channel. Ops in the parent function (which owns
// the lifecycle) and close calls (which never block) are out of scope.
func checkNakedChannelOps(pass *Pass, fl *ast.FuncLit) {
	// First pass: collect the ops that appear as select-case comms.
	guarded := map[ast.Node]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			switch st := comm.Comm.(type) {
			case *ast.SendStmt:
				guarded[st] = true
			case *ast.ExprStmt:
				guarded[st.X] = true
			case *ast.AssignStmt:
				for _, e := range st.Rhs {
					guarded[e] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if _, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
				return false // nested goroutine bodies get their own GoStmt visit
			}
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			if !guarded[st] && isChanType(pass.TypeOf(st.Chan)) {
				pass.Reportf(st.Arrow,
					"naked channel send in a goroutine blocks forever if the peer dies; "+
						"make it a select case alongside the cancellation channel")
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && !guarded[st] && isChanType(pass.TypeOf(st.X)) {
				pass.Reportf(st.OpPos,
					"naked channel receive in a goroutine blocks forever if the peer dies; "+
						"make it a select case alongside the cancellation channel")
			}
		}
		return true
	})
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// checkSendUnderMutex scans each function body in source order, tracking a
// lexical held-mutex count across Lock/Unlock calls (a deferred Unlock
// keeps the mutex held for the rest of the body), and flags channel sends
// made while the count is positive.
func checkSendUnderMutex(pass *Pass, file *ast.File) {
	var scan func(body *ast.BlockStmt)
	scan = func(body *ast.BlockStmt) {
		held := 0
		deferred := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				scan(st.Body)
				return false
			case *ast.DeferStmt:
				if isMutexCall(pass, st.Call, "Unlock") || isMutexCall(pass, st.Call, "RUnlock") {
					deferred = true
				}
				return false
			case *ast.CallExpr:
				switch {
				case isMutexCall(pass, st, "Lock"), isMutexCall(pass, st, "RLock"):
					held++
				case isMutexCall(pass, st, "Unlock"), isMutexCall(pass, st, "RUnlock"):
					if held > 0 {
						held--
					}
				}
			case *ast.SendStmt:
				if held > 0 || deferred {
					pass.Reportf(st.Arrow,
						"channel send while holding a mutex can deadlock the pipeline "+
							"(the receiver may need the same lock); send after Unlock")
				}
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			scan(fd.Body)
		}
	}
}

// isMutexCall reports whether call is m.<method>() on a sync.Mutex or
// sync.RWMutex receiver.
func isMutexCall(pass *Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	return isSyncType(pass.TypeOf(sel.X), "Mutex") || isSyncType(pass.TypeOf(sel.X), "RWMutex")
}

// isSyncType reports whether t (possibly behind a pointer) is sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
