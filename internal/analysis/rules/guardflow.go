package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"alock/internal/analysis"
	"alock/internal/analysis/flow"
)

// apiPkgPath is the import path of the token-lock API package.
const apiPkgPath = "alock/internal/api"

// Guardflow flags a guard released twice on one path with the second
// outcome thrown away: a Release or Abandon that is a statement of its own
// (or deferred), of an api.Guard variable some path to it has already
// released or abandoned, with no reassignment in between. The token layer
// fences the second release off, so the run is unharmed and no test sees
// it; what is lost is the Fenced outcome, the one signal that the code's
// idea of who holds the lock is wrong. A double release meant as a check
// compares that outcome (`h.Release(g) == api.Fenced`) and is not flagged.
//
// The rule is per function and flow-sensitive: it runs a may-analysis over
// the function's CFG (internal/analysis/flow), so a release on a branch
// that returns or continues does not mark the path after it. Function
// literals are functions of their own.
var Guardflow = &analysis.Analyzer{
	Name: "guardflow",
	Doc: "a Release or Abandon whose outcome is discarded must not repeat one already made " +
		"on the same guard along some path; check for api.Fenced if the double release is meant",
	Run: runGuardflow,
}

// released is the solver state: the guard variables some path has
// released since their last assignment. Treated as immutable.
type released map[types.Object]bool

func runGuardflow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkReleases(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkReleases(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkReleases solves one function body and reports every bare repeat
// release, once per call.
func checkReleases(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	cfg := flow.New(body)
	in := flow.Solve(cfg, released{}, flow.Solver[released]{
		Transfer: func(b *flow.Block, st released) released { return releaseTransfer(info, b, st, nil) },
		Join: func(a, b released) released {
			out := maps.Clone(a)
			maps.Copy(out, b)
			return out
		},
		Equal: maps.Equal[released, released],
	})
	reported := make(map[token.Pos]bool)
	for _, b := range cfg.Blocks {
		if st, ok := in[b]; ok {
			releaseTransfer(info, b, st, func(call *ast.CallExpr, g types.Object) {
				if !reported[call.Pos()] {
					reported[call.Pos()] = true
					pass.Reportf(call.Pos(), "guard %s already released on this path: check the ReleaseOutcome (Fenced) if the double release is intentional", g.Name())
				}
			})
		}
	}
}

// releaseTransfer applies one block's statements to the state: an
// assignment or declaration of a guard variable clears it, a Release or
// Abandon of one sets it. report, when non-nil, gets each bare release of
// a guard already set.
func releaseTransfer(info *types.Info, b *flow.Block, st released, report func(*ast.CallExpr, types.Object)) released {
	set := func(obj types.Object, v bool) {
		if obj == nil || !isGuardType(obj.Type()) || st[obj] == v {
			return
		}
		st = maps.Clone(st)
		if v {
			st[obj] = true
		} else {
			delete(st, obj)
		}
	}
	for _, s := range b.Stmts {
		if r, ok := s.(*ast.RangeStmt); ok {
			// The range head binds the iteration variables; its body is
			// blocks of its own.
			set(assignObj(info, r.Key), false)
			set(assignObj(info, r.Value), false)
			continue
		}
		var bare *ast.CallExpr
		switch v := s.(type) {
		case *ast.ExprStmt:
			bare, _ = ast.Unparen(v.X).(*ast.CallExpr)
		case *ast.DeferStmt:
			bare = v.Call
		}
		ast.Inspect(s, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					set(assignObj(info, lhs), false)
				}
			case *ast.ValueSpec:
				for _, id := range v.Names {
					set(info.Defs[id], false)
				}
			case *ast.CallExpr:
				name := calleeBaseName(v)
				if (name != "Release" && name != "Abandon") || len(v.Args) != 1 {
					return true
				}
				g := objOf(info, v.Args[0])
				if g == nil || !isGuardType(g.Type()) {
					return true
				}
				if report != nil && v == bare && st[g] {
					report(v, g)
				}
				set(g, true)
			}
			return true
		})
	}
	return st
}

func isGuardType(t types.Type) bool {
	named, _ := t.(*types.Named)
	return isPkgType(named, apiPkgPath, "Guard")
}

// assignObj resolves an assignment LHS to its object (defs for :=, uses
// for =), nil for blank or complex targets.
func assignObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// calleeBaseName returns the called function's unqualified name.
func calleeBaseName(call *ast.CallExpr) string {
	switch v := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}
