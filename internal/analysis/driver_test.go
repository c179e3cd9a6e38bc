package analysis

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// vetTool is cmd/adapipevet built once per test binary and shared by every
// test that runs go vet with it; TestMain removes its directory.
var vetTool struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if vetTool.dir != "" {
		os.RemoveAll(vetTool.dir)
	}
	os.Exit(code)
}

// goVet runs `go vet -vettool=<adapipevet> args...` in dir and returns its
// output; the error is non-nil when go vet exits non-zero. Skipped under
// -short: it builds the tool and type-checks whole modules.
func goVet(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds adapipevet and runs go vet")
	}
	vetTool.once.Do(func() {
		if vetTool.dir, vetTool.err = os.MkdirTemp("", "adapipevet"); vetTool.err != nil {
			return
		}
		vetTool.path = filepath.Join(vetTool.dir, "adapipevet")
		build := exec.Command("go", "build", "-o", vetTool.path, "adapipe/cmd/adapipevet")
		build.Dir = moduleRoot(t)
		if out, err := build.CombinedOutput(); err != nil {
			vetTool.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if vetTool.err != nil {
		t.Fatalf("building adapipevet: %v", vetTool.err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + vetTool.path}, args...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running go vet: %v", err)
	}
	return string(out), err
}

// tempModule writes a throwaway module with the given path and files under
// t.TempDir() and returns its directory.
func tempModule(t *testing.T, path string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + path + "\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestVetToolReportsFindings: a module in ctxprop's scope (its path holds the
// fixture fragment) with one positive case from testdata/src/ctxprop makes
// go vet fail with the finding in file:line:col: analyzer: message form;
// go vet -json reports it in the wire format and exits 0.
func TestVetToolReportsFindings(t *testing.T) {
	dir := tempModule(t, "ctxprop", map[string]string{"ctxprop.go": `package ctxprop

import "context"

// SearchContext is a context-aware search.
func SearchContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// FreshRoot discards the in-scope ctx for a fresh root.
func FreshRoot(ctx context.Context) int {
	return SearchContext(context.Background(), 1)
}
`})
	out, err := goVet(t, dir, "./...")
	if err == nil {
		t.Fatalf("go vet exited 0 on a ctxprop finding:\n%s", out)
	}
	want := regexp.MustCompile(`ctxprop\.go:15:23: ctxprop: context\.Background\(\) discards the in-scope ctx`)
	if !want.MatchString(out) {
		t.Errorf("go vet output lacks %q:\n%s", want, out)
	}

	out, err = goVet(t, dir, "-json", "./...")
	if err != nil {
		t.Fatalf("go vet -json: %v\n%s", err, out)
	}
	want = regexp.MustCompile(`"ctxprop": \[\s*\{\s*"posn": "[^"]*ctxprop\.go:15:23",\s*"message": "context\.Background\(\) discards the in-scope ctx`)
	if !want.MatchString(out) {
		t.Errorf("go vet -json output lacks %q:\n%s", want, out)
	}
}

// TestVetToolFailsOnTypeErrors: a unit that does not type-check fails the
// run instead of being analyzed half-typed and passing.
func TestVetToolFailsOnTypeErrors(t *testing.T) {
	dir := tempModule(t, "broken", map[string]string{
		"broken.go":      "package broken\n\n// N is a constant.\nconst N = 1\n",
		"broken_test.go": "package broken\n\nvar _ = N + undefinedName\n",
	})
	out, err := goVet(t, dir, "./...")
	if err == nil {
		t.Fatalf("go vet exited 0 on a unit with a type error:\n%s", out)
	}
	if !regexp.MustCompile(`broken_test\.go:3:13: undefined: undefinedName`).MatchString(out) {
		t.Errorf("go vet output lacks the type error:\n%s", out)
	}
}
