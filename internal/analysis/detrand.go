package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// DetRand polices the determinism surface of the plan- and hash-producing
// packages: the planner's exact-equality tests, the canonical request JSON
// behind the daemon's cache identity, and the serialized Plan bytes the
// response cache replays all require that no nondeterministic value can leak
// into an output or a hash. Three sources are flagged (order-dependent map
// iteration, the fourth, is maporder's rule; its scope covers these packages):
//
//  1. time.Now / time.Since / time.Until, called or referenced as a func
//     value (`clock: time.Now`) — wall-clock readings differ between
//     identical runs. The search-effort wall counters read an injected
//     obs.Clock; obs.RealClock, outside this scope, is the one real clock.
//  2. math/rand package-level functions — the global source is seeded
//     nondeterministically; derive from rand.New(rand.NewSource(seed)).
//  3. pointer formatting (%p) in fmt format strings — addresses differ per
//     run and would poison any serialized or hashed output.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "flags nondeterminism sources (time.Now/Since, global math/rand, %p " +
		"formatting) in the plan- and hash-producing packages",
	Applies: pathMatcher(
		nil,
		"adapipe/internal/core",
		"adapipe/internal/partition",
		"adapipe/internal/recompute",
		"adapipe/internal/schedule",
		"adapipe/internal/profile",
		"adapipe/internal/request",
		"adapipe/internal/trace",
		"detrand", // fixture packages
	),
	SkipTests: true,
	Run:       runDetRand,
}

// ptrVerbRx matches an unescaped %p verb (flags and width allowed). %% pairs
// are stripped before matching.
var ptrVerbRx = regexp.MustCompile(`%[#+\-0 ]*[0-9.]*p`)

func runDetRand(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDetRandClock(pass, n)
			case *ast.CallExpr:
				checkDetRandCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDetRandClock flags every reference to time.Now, time.Since or
// time.Until — a call, or a func value that becomes a clock elsewhere.
func checkDetRandClock(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		pass.Reportf(sel.Pos(),
			"time.%s reads the wall clock in a determinism-critical package; "+
				"clock values must never reach plans, canonical JSON or hashes",
			fn.Name())
	}
}

func checkDetRandCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		// Constructors are fine — a seeded *rand.Rand is deterministic.
		// Methods on *rand.Rand have a receiver and are fine too; only the
		// package-level functions draw from the nondeterministically seeded
		// global source.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s draws from the global math/rand source, which is seeded "+
				"nondeterministically; use rand.New(rand.NewSource(seed))",
			fn.Pkg().Name(), fn.Name())
	case "fmt":
		if !strings.HasSuffix(fn.Name(), "f") {
			return
		}
		// The format string is the first argument, or the second for the
		// writer-taking variants (Fprintf and friends).
		idx := 0
		if strings.HasPrefix(fn.Name(), "F") || fn.Name() == "Appendf" {
			idx = 1
		}
		if len(call.Args) <= idx {
			return
		}
		lit, ok := call.Args[idx].(*ast.BasicLit)
		if !ok {
			return
		}
		format, err := strconv.Unquote(lit.Value)
		if err != nil {
			return
		}
		if ptrVerbRx.MatchString(strings.ReplaceAll(format, "%%", "")) {
			pass.Reportf(call.Pos(),
				"%%p formats a pointer address, which differs between identical runs; "+
					"format a stable identifier instead")
		}
	}
}
