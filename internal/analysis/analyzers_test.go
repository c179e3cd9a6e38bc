package analysis

import (
	"io/fs"
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

// TestAllOrderPinned pins the suite's seven members, so dropping an analyzer
// from All() fails here. New analyzers go at the end.
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
			t.Errorf("All()[%d] = %s, want %s (All() is the suite the driver runs)", i, a.Name, want[i])
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

// TestSuiteCleanOnRepo runs the suite over the whole module through the one
// driver CI uses, go vet -vettool, so a regression that introduces
// nondeterministic iteration or a dropped error fails `go test` too, not only
// the lint step.
func TestSuiteCleanOnRepo(t *testing.T) {
	root := moduleRoot(t)
	// go test caches a pass keyed on the files this process opens, and go
	// vet reads the sources in a child process. Opening every package
	// directory here ties the cached result to each file's size and mtime,
	// so an edit anywhere in the module reruns the test.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir // the go command ignores these too
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := goVet(t, root, "adapipe/..."); err != nil {
		t.Fatalf("go vet -vettool over adapipe/...: %v\n%s", err, out)
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

func moduleRoot(tb testing.TB) string {
	tb.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		tb.Fatal(err)
	}
	return abs
}
