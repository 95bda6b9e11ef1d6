// Package rules implements the repo's determinism lint suite: two
// per-package syntactic analyzers, detrand and maporder. An analyzer stays
// while it catches a bug that no test or runtime gate fails on; see each
// analyzer's Doc and the README's "Determinism invariants" section, which
// maps each analyzer to that bug.
//
// Findings are suppressed per site with `//lint:allow <analyzer> <reason>`
// (the reason is mandatory; the driver rejects directives naming analyzers
// that are not part of the run).
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"alock/internal/analysis"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Detrand, Maporder}
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

// isTestFile reports whether the position's file is a _test.go file.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
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
