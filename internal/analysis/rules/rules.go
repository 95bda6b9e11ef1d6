// Package rules implements the repo's two determinism checks, detrand and
// maporder: per-package syntactic rules over a loaded *analysis.Package. A
// check stays while it catches a bug that no other test or runtime gate
// fails on; the README's "Determinism invariants" section maps each check
// to that bug. TestModuleIsLintClean runs both over every package of the
// module.
//
// Findings are suppressed per site with `//lint:allow <analyzer> <reason>`
// (the reason is mandatory; the driver rejects directives naming checks
// that are not part of the run, and reports waivers that suppress nothing).
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"alock/internal/analysis"
)

// All returns both checks in reporting order.
func All() []analysis.Check {
	return []analysis.Check{Detrand, Maporder}
}

// --- shared helpers ---

// funcOf returns the *types.Func an expression's identifier resolves to,
// or nil. It sees through parenthesization.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// isTestFile reports whether f is a _test.go file.
func isTestFile(pkg *analysis.Package, f *ast.File) bool {
	return strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
}

// mentionsObj reports whether node references obj anywhere.
func mentionsObj(info *types.Info, node ast.Node, obj types.Object) bool {
	if node == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltin reports whether id resolves to a language builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
