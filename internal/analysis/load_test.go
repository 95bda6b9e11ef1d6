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
	pkgs, err := l.Load("../..")
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
// with a throwaway check that flags every function declaration.
func TestRunSuppression(t *testing.T) {
	l := NewLoader()
	pkg, err := l.CheckDir("testdata/src/driver", "drivertest")
	if err != nil {
		t.Fatal(err)
	}
	flagFuncs := Check{Name: "flagfuncs", Run: func(pkg *Package, report Report) {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					report(fd.Body.Pos(), "function body in %s", fd.Name.Name)
				}
			}
		}
	}}
	findings := Run([]*Package{pkg}, []Check{flagFuncs})
	byCheck := map[string]int{}
	for _, f := range findings {
		byCheck[f.Check]++
	}
	// driver.go fixture: one unsuppressed function, two suppressed ones
	// (same-line and line-above directives), one directive missing its
	// reason, one naming an unknown check.
	if byCheck["flagfuncs"] != 2 || byCheck[DirectiveName] != 2 {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		t.Fatalf("unexpected findings:\n%s", strings.Join(got, "\n"))
	}
}
