package rules

// A golden-file harness for the checks. A fixture is a directory of Go
// files (under testdata, invisible to the go tool) checked as one package.
// Expected findings are written as trailing comments on the offending line:
//
//	rand.Intn(10) // want `rand\.Intn is nondeterministic`
//
// Each `want` takes one or more quoted or backquoted regular expressions;
// every expectation must be matched by a distinct finding on that line and
// every finding must match an expectation. Driver-level findings
// (malformed or stale //lint:allow directives) participate like any other,
// so suppression behavior is testable. Fixtures may import real module
// packages (alock/internal/api, ...): the harness type-checks the whole
// module once per process and resolves fixture imports against it.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alock/internal/analysis"
)

var (
	loadOnce   sync.Once
	loader     *analysis.Loader
	modulePkgs []*analysis.Package
	loadErr    error
)

// sharedModule type-checks the module once per process, so every fixture
// run reuses the same dependency packages and TestModuleIsLintClean checks
// the packages the fixtures resolved against.
func sharedModule(t *testing.T) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	loadOnce.Do(func() {
		loader = analysis.NewLoader()
		modulePkgs, loadErr = loader.Load("../../..")
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loader, modulePkgs
}

// runFixture checks the fixture package in dir (typed under importPath,
// which checks see as the package path — pick one inside or outside their
// allowlists as the case requires) against its want comments, running the
// given checks through the full driver, suppression handling included.
func runFixture(t *testing.T, dir, importPath string, checks ...analysis.Check) {
	t.Helper()
	l, _ := sharedModule(t)
	pkg, err := l.CheckDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Run([]*analysis.Package{pkg}, checks)
	wants := collectWants(t, pkg)

	// Match findings against expectations line by line.
	for _, f := range findings {
		key := lineKey{filepath.Base(f.Pos.Filename), f.Pos.Line}
		ws := wants[key]
		matched := false
		for i, w := range ws {
			if !w.used && w.re.MatchString(f.Message) {
				ws[i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s [%s]", key.file, key.line, f.Message, f.Check)
		}
	}
	keys := make([]lineKey, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.used {
				t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// collectWants parses `// want ...` comments out of the fixture files.
func collectWants(t *testing.T, pkg *analysis.Package) map[lineKey][]want {
	t.Helper()
	wants := make(map[lineKey][]want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{filepath.Base(pos.Filename), pos.Line}
				for _, pat := range parsePatterns(t, pos, text) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}

// parsePatterns splits a want payload into its quoted regexp literals.
func parsePatterns(t *testing.T, pos fmt.Stringer, text string) []string {
	t.Helper()
	var pats []string
	rest := strings.TrimSpace(text)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want clause %q (quoted or backquoted regexps expected)", pos, rest)
		}
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want literal %q: %v", pos, q, err)
		}
		pats = append(pats, pat)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return pats
}
