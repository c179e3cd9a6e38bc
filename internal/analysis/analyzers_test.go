package analysis

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMapOrderFixture(t *testing.T)    { runFixture(t, MapOrder) }
func TestFloatCmpFixture(t *testing.T)    { runFixture(t, FloatCmp) }
func TestPipeSyncFixture(t *testing.T)    { runFixture(t, PipeSync) }
func TestErrCheckCmdFixture(t *testing.T) { runFixture(t, ErrCheckCmd) }
func TestCtxPropFixture(t *testing.T)     { runFixture(t, CtxProp) }
func TestLockGuardFixture(t *testing.T)   { runFixture(t, LockGuard) }
func TestDetRandFixture(t *testing.T)     { runFixture(t, DetRand) }

// TestAllOrderPinned freezes the suite order: SARIF rule indices and the
// diagnostic tie-break both follow All(), so reordering would churn every
// golden report. New analyzers go at the end.
func TestAllOrderPinned(t *testing.T) {
	want := []string{
		"maporder", "floatcmp", "pipesync", "errcheckcmd",
		"ctxprop", "lockguard", "detrand",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s (order is part of the reporting contract)", i, a.Name, want[i])
		}
	}
}

// TestScopes pins the package scoping: each analyzer must cover the
// packages its invariant lives in and stay out of unrelated ones.
func TestScopes(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		in   []string
		out  []string
		name string
	}{
		{MapOrder, []string{"adapipe", "adapipe/internal/core", "adapipe/internal/trace", "adapipe/internal/recompute", "adapipe/internal/request"},
			[]string{"adapipe/internal/train", "adapipe/cmd/adapipe"}, "maporder"},
		{FloatCmp, []string{"adapipe/internal/core", "adapipe/internal/partition", "adapipe/internal/recompute"},
			[]string{"adapipe", "adapipe/internal/sim"}, "floatcmp"},
		{PipeSync, []string{"adapipe/internal/train", "adapipe/internal/sim"},
			[]string{"adapipe/internal/core", "adapipe"}, "pipesync"},
		{ErrCheckCmd, []string{"adapipe/cmd/adapipe", "adapipe/cmd/experiments", "adapipe/examples/quickstart"},
			[]string{"adapipe", "adapipe/internal/core"}, "errcheckcmd"},
		{CtxProp, []string{"adapipe", "adapipe/internal/request", "adapipe/internal/core", "adapipe/internal/serve", "adapipe/internal/baseline", "adapipe/internal/train"},
			[]string{"adapipe/internal/sim", "adapipe/cmd/adapipe", "adapipe/examples/quickstart"}, "ctxprop"},
		{DetRand, []string{"adapipe/internal/core", "adapipe/internal/request", "adapipe/internal/trace", "adapipe/internal/profile"},
			[]string{"adapipe", "adapipe/internal/train", "adapipe/cmd/adapipe"}, "detrand"},
	}
	for _, tc := range cases {
		for _, p := range tc.in {
			if !tc.a.Applies(p) {
				t.Errorf("%s: should apply to %s", tc.name, p)
			}
		}
		for _, p := range tc.out {
			if tc.a.Applies(p) {
				t.Errorf("%s: should not apply to %s", tc.name, p)
			}
		}
		if !tc.a.Applies(tc.name) {
			t.Errorf("%s: should apply to its own fixture package", tc.name)
		}
	}
}

// TestSuiteCleanOnRepo runs the full suite over the whole module — the same
// gate CI enforces — so a regression that introduces nondeterministic
// iteration or a dropped error fails `go test` too, not only the lint step.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(moduleRoot(t), []string{"adapipe/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestExecutorImportsNoPlanner pins the layering: the 1F1B executor builds
// without any package of the planner, so neither can grow a dependency on
// the other's internals unnoticed.
func TestExecutorImportsNoPlanner(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "adapipe/internal/train")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	planner := map[string]bool{}
	for _, p := range []string{"core", "partition", "recompute", "coststore", "memo", "profile", "memory", "hardware", "parallel"} {
		planner["adapipe/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if planner[dep] {
			t.Errorf("adapipe/internal/train depends on planner package %s", dep)
		}
	}
}

// TestScopesUniversal pins the analyzers that deliberately apply everywhere.
func TestScopesUniversal(t *testing.T) {
	for _, a := range []*Analyzer{LockGuard} {
		if a.Applies != nil {
			t.Errorf("%s: expected a nil Applies (annotations can appear in any package)", a.Name)
		}
	}
}

// BenchmarkAdapipevet measures a full-repo suite run — load, type-check, and
// every analyzer over every package — so CI logs track the lint gate's
// wall cost as the suite and the tree grow.
func BenchmarkAdapipevet(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		pkgs, err := Load(root, []string{"adapipe/..."})
		if err != nil {
			b.Fatalf("loading module: %v", err)
		}
		if diags := Run(pkgs, All()); len(diags) != 0 {
			b.Fatalf("suite not clean: %d diagnostics", len(diags))
		}
	}
}

func moduleRoot(tb testing.TB) string {
	tb.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		tb.Fatal(err)
	}
	return abs
}
