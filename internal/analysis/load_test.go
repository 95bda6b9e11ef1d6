package analysis

import (
	"go/ast"
	"strings"
	"testing"
)

// TestLoadModule proves the loader can enumerate and type-check the whole
// module (and, transitively, its stdlib imports) without network access.
func TestLoadModule(t *testing.T) {
	l := NewLoader()
	pkgs, err := l.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, want := range []string{"alock", "alock/internal/sim", "alock/internal/locks", "alock/internal/mem", "alock/internal/workload"} {
		p, ok := byPath[want]
		if !ok {
			t.Fatalf("package %s not loaded (got %d packages)", want, len(pkgs))
		}
		if p.Types == nil || len(p.Files) == 0 {
			t.Fatalf("package %s loaded without types or files", want)
		}
	}
	// Test files must not be part of the load: the suite's rules exempt
	// them, and fixtures rely on it.
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Fatalf("test file %s was loaded", name)
			}
		}
	}
}

// TestRunSuppression exercises the driver's directive handling end to end
// with a throwaway analyzer that flags every function declaration.
func TestRunSuppression(t *testing.T) {
	l := NewLoader()
	pkg, err := l.CheckDir("testdata/src/driver", "drivertest")
	if err != nil {
		t.Fatal(err)
	}
	flagFuncs := &Analyzer{
		Name: "flagfuncs",
		Doc:  "flags every function declaration (driver test double)",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
						p.Reportf(fd.Body.Pos(), "function body in %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{flagFuncs})
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	// driver.go fixture: one unsuppressed function, two suppressed ones
	// (same-line and line-above directives), one directive missing its
	// reason, one naming an unknown analyzer.
	if byAnalyzer["flagfuncs"] != 2 || byAnalyzer[DirectiveName] != 2 {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		t.Fatalf("unexpected findings:\n%s", strings.Join(got, "\n"))
	}
}
