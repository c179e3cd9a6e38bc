package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxProp enforces context propagation in the library packages that sit on
// the search and serving paths (the root adapipe façade, internal/request,
// internal/core, internal/serve, internal/baseline, internal/train).
// Cancellation is threaded through the whole search (core.PlanContext →
// baseline.EvaluateContext → train.RunContext); a single function that drops
// the context silently severs that chain — a cancelled daemon request would
// keep burning an admission slot on a search nobody is waiting for. Three
// patterns are flagged:
//
//  1. context.Background() or context.TODO() called inside a function that
//     already receives a context — the fresh root context discards the
//     caller's deadline and cancellation. Deliberate detachment is built
//     where no ctx is in scope: the serve coalescing leader runs under the
//     server's base context, which New derives from context.Background().
//  2. a call that drops the in-scope context when a context-aware variant of
//     the same callee exists: calling X() where XContext(ctx, ...) is
//     defined on the same receiver or in the same package. This is exactly
//     the class of bug PR 5 fixed by hand when core.Plan grew PlanContext.
//  3. a loop that performs blocking operations (naked channel sends or
//     receives, time.Sleep, WaitGroup.Wait) without ever consulting the
//     in-scope context — no ctx.Done()/ctx.Err() check, no select, and no
//     callee receives ctx — so cancellation cannot interrupt it between
//     iterations.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: "flags dropped context propagation in the search/serving library packages: " +
		"context.Background()/TODO() where a ctx is in scope, calls that bypass an " +
		"existing Context-variant of the callee, and blocking loops that never " +
		"check ctx.Done()/ctx.Err()",
	Applies: pathMatcher(
		[]string{"adapipe"},
		"adapipe/internal/request",
		"adapipe/internal/core",
		"adapipe/internal/serve",
		"adapipe/internal/baseline",
		"adapipe/internal/train",
		"ctxprop", // fixture packages
	),
	SkipTests: true,
	Run:       runCtxProp,
}

func runCtxProp(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxWalkFunc(pass, fd.Body, ctxParamObj(pass, fd.Type))
		}
	}
	return nil
}

// ctxParamObj returns the object of the first parameter whose type is
// context.Context and whose name is usable (not blank), or nil.
func ctxParamObj(pass *Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		if !isContextType(pass.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// ctxWalkFunc analyzes one function body with ctxObj as the innermost
// context in scope (nil when none). Function literals are visited here with
// their own context parameter if they declare one, inheriting ctxObj
// otherwise — a closure still sees the enclosing context.
func ctxWalkFunc(pass *Pass, body ast.Node, ctxObj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			inner := ctxParamObj(pass, st.Type)
			if inner == nil {
				inner = ctxObj
			}
			ctxWalkFunc(pass, st.Body, inner)
			return false
		case *ast.CallExpr:
			if ctxObj == nil {
				return true
			}
			if name, ok := contextRootCall(pass, st); ok {
				pass.Reportf(st.Pos(),
					"context.%s() discards the in-scope ctx; derive from ctx", name)
				return true
			}
			checkDroppedContextVariant(pass, st, ctxObj)
		case *ast.ForStmt:
			if ctxObj != nil {
				checkBlockingLoop(pass, st, st.Body, ctxObj)
			}
		case *ast.RangeStmt:
			if ctxObj != nil {
				checkBlockingLoop(pass, st, st.Body, ctxObj)
			}
		}
		return true
	})
}

// contextRootCall reports whether call is context.Background() or
// context.TODO(), returning the function name.
func contextRootCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkDroppedContextVariant flags a call to X(...) made while a ctx is in
// scope when the callee takes no context itself but a sibling XContext whose
// first parameter is a context.Context exists — on the same receiver type for
// methods, in the same package for functions.
func checkDroppedContextVariant(pass *Pass, call *ast.CallExpr, ctxObj types.Object) {
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	}
	if callee == nil || strings.HasSuffix(callee.Name(), "Context") {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || signatureTakesContext(sig) {
		return
	}
	variantName := callee.Name() + "Context"
	var variant types.Object
	if recv := sig.Recv(); recv != nil {
		variant, _, _ = types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), variantName)
	} else if callee.Pkg() != nil {
		variant = callee.Pkg().Scope().Lookup(variantName)
	}
	vf, ok := variant.(*types.Func)
	if !ok {
		return
	}
	vsig, ok := vf.Type().(*types.Signature)
	if !ok || !signatureTakesContext(vsig) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s drops the in-scope ctx; use %s(ctx, ...) so cancellation propagates",
		callee.Name(), variantName)
}

// signatureTakesContext reports whether any parameter of sig is a
// context.Context.
func signatureTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkBlockingLoop flags a loop whose own body (nested loops and function
// literals excluded — they are judged at their own visit) contains a blocking
// operation while never consulting ctx: no reference to the ctx object (a
// Done/Err check or passing it to a callee both count) and no select
// statement (a select implies some cancellation path was designed in).
func checkBlockingLoop(pass *Pass, loop ast.Stmt, body *ast.BlockStmt, ctxObj types.Object) {
	blocking := false
	mentionsCtx := false
	hasSelect := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false // judged separately
		case *ast.SelectStmt:
			hasSelect = true
			return true
		case *ast.SendStmt:
			if isChanType(pass.TypeOf(st.Chan)) {
				blocking = true
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && isChanType(pass.TypeOf(st.X)) {
				blocking = true
			}
		case *ast.CallExpr:
			if isBlockingCall(pass, st) {
				blocking = true
			}
		case *ast.Ident:
			if pass.TypesInfo.Uses[st] == ctxObj {
				mentionsCtx = true
			}
		}
		return true
	}
	// The loop's condition and post statement count toward the ctx-mention
	// check (`for ctx.Err() == nil { ... }` is a valid guard), so walk the
	// whole loop but cut off nested loops and literals inside the body.
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond != nil {
			ast.Inspect(l.Cond, visit)
		}
		if l.Post != nil {
			ast.Inspect(l.Post, visit)
		}
	}
	for _, s := range body.List {
		ast.Inspect(s, visit)
	}
	if blocking && !mentionsCtx && !hasSelect {
		pass.Reportf(loop.Pos(),
			"loop performs blocking operations but never checks ctx.Done()/ctx.Err(); "+
				"a cancelled search would keep running — check the context between iterations")
	}
}

// isBlockingCall recognizes the well-known blocking calls the loop check
// cares about: time.Sleep and sync.WaitGroup.Wait.
func isBlockingCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Sleep":
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		return ok && obj.Pkg() != nil && obj.Pkg().Path() == "time"
	case "Wait":
		return isSyncType(pass.TypeOf(sel.X), "WaitGroup")
	}
	return false
}
