package analysis

import (
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRx extracts the expectation regexes from a want comment; patterns may
// be double-quoted (Go escapes apply) or backquoted (taken verbatim).
var wantRx = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// runFixture is a self-contained analogue of
// golang.org/x/tools/go/analysis/analysistest.Run: it loads the analyzer's
// fixture package (testdata/src/<name>), runs the analyzer, and matches the
// produced diagnostics against `// want "regexp"` comments. Each diagnostic must be
// matched by a want on its line, and every want must be matched by a
// diagnostic — so a fixture fails both when the analyzer misses a positive
// case and when it fires on a negative one.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: no Go files (%v)", dir, err)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := CheckFiles(fset, filepath.Base(dir), files, imp)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", dir, terr)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" && m[2] != "" {
						var err error
						pat, err = strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want string %q: %v", pos, m[2], err)
						}
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], rx)
				}
			}
		}
	}

	diags := Run([]*Package{pkg}, []*Analyzer{a})
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
		}
	}
}
