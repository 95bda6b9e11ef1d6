// Package rules implements the repo's determinism lint suite: seven
// analyzers that statically enforce the invariants every bit-identity
// guarantee rests on — three per-package syntactic checks and four
// interprocedural ones built on the callgraph and flow packages. See each
// analyzer's Doc and the README's "Determinism invariants" section.
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

// All returns the full suite in reporting order: the three per-package
// analyzers, then the four interprocedural ones built on the callgraph/flow
// packages (guardflow and shardflow include the per-site and per-package
// rules of their invariants).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Detrand, Maporder, Rnggate,
		Allocfree, Guardflow, Lockorder, Shardflow}
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

// namedRecv returns the named type of a method selection's receiver with
// pointers dereferenced, or nil.
func namedRecv(sel *types.Selection) *types.Named {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// methodCall resolves a call of the form x.M(...) where M is a method: its
// selector and selection, nil for any other call.
func methodCall(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, *types.Selection) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, nil
	}
	return sel, selection
}

// isPkgType reports whether n is the named type pkgPath.name.
func isPkgType(n *types.Named, pkgPath, name string) bool {
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
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

// objOf resolves an identifier expression (ident or selector) to its
// object, or nil for anything more complex.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// isBuiltin reports whether id resolves to a language builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
