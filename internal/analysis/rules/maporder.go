package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"alock/internal/analysis"
)

// Maporder flags `range` over a map whose loop body has order-dependent
// effects. Go map iteration order is deliberately randomized, so anything
// the body does that is sensitive to visit order — appending values to a
// result slice, emitting output, scheduling work, returning an element —
// makes the enclosing computation nondeterministic run to run.
//
// The sorted-keys idiom is recognized: a body that only appends the bare
// loop key to a slice is accepted *provided* a sort call (package sort or
// slices, or a function whose name contains "Sort") is applied to that
// slice later in the same block. Also accepted, because they commute
// across iteration orders: writes to another map indexed by the loop key,
// delete of a key-derived entry, integer accumulation via
// += -= |= &= ^= *= and ++/--, and control flow composed of those.
// Float accumulation is NOT accepted: float addition is not associative,
// and this repo's guarantees are bit-level.
var Maporder = analysis.Check{Name: "maporder", Run: runMaporder}

func runMaporder(pkg *analysis.Package, report analysis.Report) {
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var stmts []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				stmts = n.List
			case *ast.CaseClause:
				stmts = n.Body
			case *ast.CommClause:
				stmts = n.Body
			default:
				return true
			}
			for i, s := range stmts {
				rs, ok := s.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := pkg.TypesInfo.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pkg.TypesInfo, report, rs, stmts[i+1:])
			}
			return true
		})
	}
}

// checkMapRange validates one map-range statement. following holds the
// statements after it in the enclosing block, searched for the sort half
// of the collect-keys idiom.
func checkMapRange(info *types.Info, report analysis.Report, rs *ast.RangeStmt, following []ast.Stmt) {
	v := &rangeValidator{
		info:   info,
		keyObj: rangeVarObj(info, rs, rs.Key),
	}
	v.stmts(rs.Body.List)
	if v.badPos.IsValid() {
		report(v.badPos, "map iteration has order-dependent effects (%s): iterate sorted keys instead", v.badWhat)
		return
	}
	collected := make([]types.Object, 0, len(v.collected))
	for obj := range v.collected {
		collected = append(collected, obj)
	}
	sort.Slice(collected, func(i, j int) bool { return collected[i].Pos() < collected[j].Pos() })
	for _, obj := range collected {
		if !sortedLater(info, following, obj) {
			report(rs.Pos(), "map keys collected into %s are never sorted: order-dependent result", obj.Name())
		}
	}
}

// rangeVarObj resolves a range clause variable (key or value) to its
// object, for both := and = forms. Returns nil for blank or absent.
func rangeVarObj(info *types.Info, rs *ast.RangeStmt, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if rs.Tok == token.DEFINE {
		return info.Defs[id]
	}
	return info.Uses[id]
}

// rangeValidator classifies a map-range body. The first order-dependent
// statement is recorded in badPos/badWhat; key-collect appends land in
// collected for the later sort check.
type rangeValidator struct {
	info      *types.Info
	keyObj    types.Object
	collected map[types.Object]bool
	badPos    token.Pos
	badWhat   string
}

func (v *rangeValidator) bad(pos token.Pos, what string) {
	if !v.badPos.IsValid() {
		v.badPos, v.badWhat = pos, what
	}
}

func (v *rangeValidator) stmts(list []ast.Stmt) {
	for _, s := range list {
		v.stmt(s)
	}
}

func (v *rangeValidator) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		v.assign(s)
	case *ast.IncDecStmt:
		// Counting elements commutes.
	case *ast.IfStmt:
		v.stmt(s.Body)
		if s.Else != nil {
			v.stmt(s.Else)
		}
	case *ast.BlockStmt:
		v.stmts(s.List)
	case *ast.ForStmt:
		v.stmt(s.Body)
	case *ast.RangeStmt:
		// A nested range gets its own top-level check if it is over a
		// map; relative to the outer map order its body obeys the same
		// commutativity rules.
		v.stmt(s.Body)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			v.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			v.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && isBuiltin(v.info, id) {
				// delete(m2, k): removal keyed by the loop key commutes.
				if len(call.Args) == 2 && mentionsObj(v.info, call.Args[1], v.keyObj) {
					return
				}
			}
			v.bad(s.Pos(), "calls "+exprString(call.Fun)+" per iteration")
			return
		}
		v.bad(s.Pos(), "expression statement per iteration")
	case *ast.DeclStmt:
		hasCall := false
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				hasCall = true
			}
			return !hasCall
		})
		if hasCall {
			v.bad(s.Pos(), "declaration with a call per iteration")
		}
	case *ast.BranchStmt:
		// break/continue/goto commute (they only prune work).
	case *ast.EmptyStmt:
	case *ast.ReturnStmt:
		v.bad(s.Pos(), "returns an arbitrary element")
	case *ast.SendStmt:
		v.bad(s.Pos(), "sends on a channel per iteration")
	default:
		v.bad(s.Pos(), "order-dependent statement")
	}
}

// assign classifies one assignment inside the body.
func (v *rangeValidator) assign(s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		v.bad(s.Pos(), "multi-assignment per iteration")
		return
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// s = append(s, key): the collect half of the sorted-keys idiom.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(v.info, id) {
				v.appendStmt(s, lhs, call)
				return
			}
		}
		// m2[k] = ...: keyed by the loop key, writes commute.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := v.info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
				if mentionsObj(v.info, ix.Index, v.keyObj) {
					return
				}
				v.bad(s.Pos(), "map write not keyed by the loop key (same-key collisions resolve in map order)")
				return
			}
		}
		v.bad(s.Pos(), "assignment per iteration")
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		t := v.info.Types[lhs].Type
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return // integer accumulation commutes
		}
		v.bad(s.Pos(), "non-integer accumulation (not associative across map orders)")
	default:
		v.bad(s.Pos(), "compound assignment per iteration")
	}
}

// appendStmt validates `s = append(s, args...)`: only bare loop keys may
// be appended, and the result must land back in the same variable (which
// is then required to be sorted after the loop).
func (v *rangeValidator) appendStmt(s *ast.AssignStmt, lhs ast.Expr, call *ast.CallExpr) {
	lhsID, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		v.bad(s.Pos(), "append into a non-identifier per iteration")
		return
	}
	var lhsObj types.Object
	if s.Tok == token.DEFINE {
		lhsObj = v.info.Defs[lhsID]
	} else {
		lhsObj = v.info.Uses[lhsID]
	}
	if len(call.Args) < 2 || call.Ellipsis.IsValid() {
		v.bad(s.Pos(), "append of map contents in iteration order")
		return
	}
	if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || v.info.Uses[first] != lhsObj {
		v.bad(s.Pos(), "append into a different slice per iteration")
		return
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || v.keyObj == nil || v.info.Uses[id] != v.keyObj {
			v.bad(arg.Pos(), "appends map values in iteration order (only bare keys, sorted afterwards, are deterministic)")
			return
		}
	}
	if v.collected == nil {
		v.collected = make(map[types.Object]bool)
	}
	v.collected[lhsObj] = true
}

// sortedLater reports whether some statement after the range applies a
// sort to the collected slice: a call referencing obj whose callee is in
// package sort or slices, or whose name contains "Sort".
func sortedLater(info *types.Info, following []ast.Stmt, obj types.Object) bool {
	for _, s := range following {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !mentionsObj(info, call, obj) {
				return true
			}
			if fn := funcOf(info, call.Fun); fn != nil {
				if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
					found = true
					return false
				}
				if strings.Contains(fn.Name(), "Sort") || strings.Contains(fn.Name(), "sort") {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// exprString renders a short printable form of a callee expression.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
