package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
)

// Allocfree proves the hot-path roots in HotPathRoots allocation-free:
// every function reachable from them over call/defer edges (go edges are
// goroutine startup, priced separately) must contain no heap-allocating
// construct. It is the static twin of alloc_test.go's AllocsPerRun and
// Mallocs probes: the probes check the paths a test drives, this checks
// all of them.
var Allocfree = NewAllocfree(HotPathRoots)

// NewAllocfree builds an allocfree analyzer over a custom root set, in
// callgraph name format ("pkgpath.(*Recv).Method"). Fixture tests use
// fixture-local roots; the production instance uses HotPathRoots.
func NewAllocfree(roots []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "allocfree",
		Doc: "forbids heap-allocating constructs (capturing closures, goroutine " +
			"spawns, interface boxing at call sites, non-self append, make, " +
			"map/slice literals, new/&composite) in every function reachable " +
			"from the hot-path roots; constructs feeding a panic are exempt " +
			"(trap paths terminate the run)",
	}
	a.RunModule = func(mp *analysis.ModulePass) error {
		runAllocfree(mp, roots)
		return nil
	}
	return a
}

func runAllocfree(mp *analysis.ModulePass, roots []string) {
	g := moduleGraph(mp)
	var rootNodes []*callgraph.Node
	for _, r := range roots {
		n := g.Lookup(r)
		if n == nil {
			// A missing root means a rename silently shrank the proved
			// surface; that is itself a finding, attributed to the root
			// config's package would be ideal but position-less is visible
			// enough to fail the run.
			mp.Reportf(token.NoPos, "hot-path root %q does not resolve to a module function; update HotPathRoots", r)
			continue
		}
		rootNodes = append(rootNodes, n)
	}
	reach := callgraph.Reachable(rootNodes)
	for _, n := range g.Nodes() {
		if !reach[n] || n.Body() == nil {
			continue
		}
		if strings.HasSuffix(n.Pkg.Fset.Position(n.Pos()).Filename, "_test.go") {
			continue
		}
		scanAllocs(mp, n)
	}
}

// scanAllocs reports every allocating construct in one hot node's body.
// Nested function literals are their own nodes (scanned if themselves
// reachable); here only their creation cost — the closure environment —
// is charged to the parent.
func scanAllocs(mp *analysis.ModulePass, n *callgraph.Node) {
	info := n.Pkg.TypesInfo
	body := n.Body()
	exempt := panicArgRanges(body)
	report := func(pos token.Pos, format string, args ...any) {
		for _, r := range exempt {
			if pos >= r[0] && pos < r[1] {
				return
			}
		}
		mp.Reportf(pos, "hot-path %s allocates: %s", n.Name(), fmt.Sprintf(format, args...))
	}

	// Self-appends (x = append(x, ...)) are amortized by the retained
	// backing array and stay allocation-free in steady state; collect
	// them first so the CallExpr walk can skip them.
	selfAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || !isBuiltin(info, id) {
				continue
			}
			dst := allocTarget(info, as.Lhs[i])
			src := allocTarget(info, call.Args[0])
			if dst != nil && dst == src {
				selfAppend[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.FuncLit:
			if capt := litCapture(info, v); capt != "" {
				report(v.Pos(), "closure captures %s", capt)
			}
			return false // the literal's own body is a separate node
		case *ast.GoStmt:
			report(v.Pos(), "go statement spawns a goroutine")
		case *ast.CallExpr:
			checkAllocCall(info, v, selfAppend, report)
		case *ast.CompositeLit:
			switch info.Types[v].Type.Underlying().(type) {
			case *types.Slice:
				report(v.Pos(), "slice literal")
				return false
			case *types.Map:
				report(v.Pos(), "map literal")
				return false
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					report(v.Pos(), "&composite literal escapes to the heap")
				}
			}
		}
		return true
	})
}

// checkAllocCall charges builtin allocators and interface boxing of
// arguments at one call site.
func checkAllocCall(info *types.Info, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool, report func(token.Pos, string, ...any)) {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(info, id) {
		switch id.Name {
		case "make":
			report(call.Pos(), "make")
		case "new":
			report(call.Pos(), "new")
		case "append":
			if !selfAppend[call] {
				report(call.Pos(), "append into a new backing array (not x = append(x, ...))")
			}
		}
		return
	}
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return // conversion, charged elsewhere if it boxes
	}
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "argument %s boxed into interface parameter", typeLabel(at))
	}
	// A variadic call with at least one variadic element materializes the
	// argument slice; with none, the callee sees nil.
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call materializes an argument slice")
	}
}

// allocTarget resolves an append operand to a comparable object: the
// variable for identifiers, the field object for selector expressions
// (x.buf matches x.buf regardless of receiver spelling — per-field, not
// per-instance, which is the right granularity for the self-append
// exemption).
func allocTarget(info *types.Info, e ast.Expr) types.Object {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[v]; obj != nil {
			return obj
		}
		return info.Defs[v]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[v.Sel]
	}
	return nil
}

// callSignature resolves the signature a call invokes, nil for builtins
// and conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// litCapture returns the name of a variable a function literal captures
// from its enclosing function, or "" for capture-free literals (which
// the compiler hoists to static functions, no allocation).
func litCapture(info *types.Info, lit *ast.FuncLit) string {
	capture := ""
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if capture != "" {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		// Declared outside the literal but not at package scope ⇒ the
		// literal closes over the enclosing function's frame.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			capture = v.Name()
		}
		return true
	})
	return capture
}

// pointerShaped reports whether values of t fit a pointer word, so
// converting them to an interface stores the value directly without a
// heap allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// panicArgRanges collects the source ranges of every panic(...) argument
// in a body: allocation on a trap path is exempt, the run is over anyway.
func panicArgRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			for _, a := range call.Args {
				out = append(out, [2]token.Pos{a.Pos(), a.End()})
			}
		}
		return true
	})
	return out
}

// typeLabel renders a type tersely for diagnostics.
func typeLabel(t types.Type) string {
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}
