package adapipe_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docTestName matches a test, fuzz or benchmark function name in prose — the
// prefix, then what Go allows after it (anything but a lower-case letter
// first) — with brace alternatives such as BenchmarkSimulate{1F1B,Chimera}.
var docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(?:\{[A-Za-z0-9_,]*\}[A-Za-z0-9_]*)*`)

// testFunc matches the declaration of a test, fuzz or benchmark function.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// expandBraces expands the first {a,b,...} group of name, recursively.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// TestDocsNameOnlyRealTests: every Test…, Fuzz… and Benchmark… name that
// DESIGN.md, README.md and EXPERIMENTS.md cite is a function some _test.go
// file of the module declares, so a change that deletes or renames a test
// cannot leave a document pointing at it.
func TestDocsNameOnlyRealTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["TestDocsNameOnlyRealTests"] {
		t.Fatal("the walk found no test declarations")
	}
	var missing []string
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cited := range docTestName.FindAllString(string(text), -1) {
			for _, name := range expandBraces(cited) {
				if !defined[name] {
					missing = append(missing, doc+": "+name)
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is no function of any _test.go file", m)
	}
}
