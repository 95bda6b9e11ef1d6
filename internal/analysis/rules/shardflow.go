package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
)

// memPkgPath is the import path of the memory substrate package whose
// accessors shardflow polices.
const memPkgPath = "alock/internal/mem"

// ShardflowScopes are the package-path prefixes whose every function is
// checked whether or not dispatch reaches it: the engine and the lock
// algorithms, where a stray direct word access from the wrong timeline
// breaks the windowed executor's isolation proof.
var ShardflowScopes = []string{"alock/internal/sim", "alock/internal/locks"}

// ShardflowSanctioned is the accessor set allowed to resolve memory words
// through (*mem.Space).WordAddr / (*mem.Space).Region: the engine's verb
// executor and the step function that applies a thread's posted local
// operations (Read, Write, CAS, SpinWhile's and SpinUntil's polls and the
// loopback verbs, torn RCAS included, run by the executor), which are exactly
// the sites the runtime access audit (sim.WithAccessAudit) instruments. Names
// are receiver-qualified but package-agnostic so the golden fixtures can model
// the shape.
var ShardflowSanctioned = map[string]bool{
	"(*Engine).execProtocol": true,
	"(*Thread).step":         true,
}

// ShardflowRoots name the windowed executor's per-shard dispatch: every
// function statically reachable from these (or from a thread body handed
// to Spawn) runs on a shard's private timeline during a parallel window.
// If a root fails to resolve the analyzer reports it, so a rename cannot
// silently turn the check off.
var ShardflowRoots = []string{
	"alock/internal/sim.(*shard).runWindow",
	"alock/internal/sim.(*Engine).runWindowed",
}

// Shardflow is the static twin of the runtime access audit
// (sim.WithAccessAudit): memory words may be resolved directly — through
// (*mem.Space).WordAddr / Region or (*mem.Region).WordAddr — only by the
// sanctioned accessor set (ShardflowSanctioned), which routes every access
// through mem.Space, whose audit hook enforces shard ownership at runtime.
// Two sets of functions are checked, test files excepted:
//
//   - every function reachable from per-shard dispatch, in any package: the
//     analyzer follows the call graph, including go and defer edges, from the
//     dispatch roots and the thread bodies registered via (*Engine).Spawn /
//     (*Cluster).Spawn, and stops at the sanctioned set;
//   - every other function declared in the engine and lock packages
//     (ShardflowScopes) but outside the sanctioned set, reached or not:
//     there region-level access is never legitimate, and a Space access is
//     one refactor away from a dispatch path.
//
// Functions handed to a WorkLoop or SpinUntil method (ExecutorFuncs) are thread
// code the engine runs between events, on the executor, bound to the calling
// thread's node — never sanctioned, whatever declaration encloses them. They
// are dispatch roots like thread bodies, and they answer to one more rule:
// nothing reachable from them may call a method of a thread context (any type
// with one of those methods — the function does not run on the thread's
// coroutine) or of the engine that owns the dispatch roots (engine state
// belongs to every node; the function may touch only its own node's).
var Shardflow = NewShardflow(ShardflowRoots)

// ExecutorFuncs lists the api.Ctx methods that take thread code for the engine
// to run off the thread's coroutine, with the position of that argument:
// WorkLoop's f and SpinUntil's done.
var ExecutorFuncs = []struct {
	Method string
	Arg    int
}{
	{"WorkLoop", 0},
	{"SpinUntil", 2},
}

// NewShardflow builds the analyzer for an explicit root set; fixtures use
// it to model the dispatch shape under a test import path.
func NewShardflow(roots []string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "shardflow",
		Doc: "code reachable from per-shard dispatch, and any engine or lock package code, must not " +
			"resolve memory words outside the sanctioned accessors",
		RunModule: func(mp *analysis.ModulePass) error { return runShardflow(mp, roots) },
	}
}

// shardflowExemptPkgs are packages whose bodies are never reported even
// when reached: the memory substrate itself (its internals implement the
// audited accessors) and the wall-clock runtime (its threads run on real
// time with no shard timelines to isolate — the Ctx-verb methods there
// are the moral equivalent of the sanctioned set, reached through
// api.Ctx interface dispatch).
var shardflowExemptPkgs = map[string]bool{
	memPkgPath:          true,
	"alock/internal/rt": true,
}

func runShardflow(mp *analysis.ModulePass, roots []string) error {
	g := moduleGraph(mp)
	var rootNodes []*callgraph.Node
	rootPkgs := map[string]bool{}
	for _, r := range roots {
		n := g.Lookup(r)
		if n == nil {
			mp.Reportf(token.NoPos,
				"shard-dispatch root %q does not resolve to a function in the module (renamed? update rules.ShardflowRoots)", r)
			continue
		}
		rootNodes = append(rootNodes, n)
		if n.Pkg != nil {
			rootPkgs[n.Pkg.ImportPath] = true
		}
	}
	rootNodes = append(rootNodes, threadCode(mp, g, "Spawn", 1, rootPkgs)...)
	ranBy := make([]map[*callgraph.Node]bool, len(ExecutorFuncs)) // per method: what its functions reach
	for i, m := range ExecutorFuncs {
		fns := threadCode(mp, g, m.Method, m.Arg, nil)
		rootNodes = append(rootNodes, fns...)
		ranBy[i] = reachableSharded(fns)
	}
	reached := reachableSharded(rootNodes)
	for _, n := range g.Nodes() {
		if n.Body() == nil || n.Pkg == nil || shardflowExemptPkgs[n.Pkg.ImportPath] {
			continue
		}
		if strings.HasSuffix(mp.Fset.Position(n.Pos()).Filename, "_test.go") {
			continue
		}
		switch {
		case reached[n]:
			scanSubstrateAccess(mp, n, "reachable from per-shard dispatch")
			for i, m := range ExecutorFuncs {
				if ranBy[i][n] {
					scanLoopCalls(mp, n, rootPkgs, m.Method)
					break
				}
			}
		case inShardScope(n.Pkg.ImportPath) && !sanctionedNode(n):
			scanSubstrateAccess(mp, n, "outside the sanctioned accessor set")
		}
	}
	return nil
}

// inShardScope reports whether pkgPath is one of ShardflowScopes or below it.
func inShardScope(pkgPath string) bool {
	for _, prefix := range ShardflowScopes {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true
		}
	}
	return false
}

// threadCode resolves the function values handed, as argument arg, to the
// methods called `method`, outside test files: thread bodies (Spawn) resume
// inside shard windows through coroutine switches, and WorkLoop and SpinUntil
// functions are called from the engine's sanctioned step, neither of which
// the call graph follows, so they are roots in their own right. With pkgs set, only methods
// of types those packages declare count: Spawn methods of other runtimes (the
// wall-clock Cluster) schedule no shard windows and are ignored.
func threadCode(mp *analysis.ModulePass, g *callgraph.Graph, method string, arg int, pkgs map[string]bool) []*callgraph.Node {
	var out []*callgraph.Node
	for _, pkg := range mp.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			if strings.HasSuffix(mp.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) <= arg {
					return true
				}
				sel, selection := methodCall(info, call)
				if sel == nil || sel.Sel.Name != method {
					return true
				}
				recv := namedRecv(selection)
				if pkgs != nil && (recv == nil || recv.Obj().Pkg() == nil || !pkgs[recv.Obj().Pkg().Path()]) {
					return true
				}
				out = append(out, g.ValuesOf(pkg, call.Args[arg])...)
				return true
			})
		}
	}
	return out
}

// reachableSharded walks out-edges (including go and defer) from the
// roots, refusing to enter the sanctioned accessor set: a sanctioned
// function's own substrate accesses are audited at runtime and are not
// findings here.
func reachableSharded(roots []*callgraph.Node) map[*callgraph.Node]bool {
	reached := map[*callgraph.Node]bool{}
	var stack []*callgraph.Node
	for _, r := range roots {
		if r != nil && !reached[r] && !sanctionedNode(r) {
			reached[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if e.To == nil || reached[e.To] || sanctionedNode(e.To) {
				continue
			}
			reached[e.To] = true
			stack = append(stack, e.To)
		}
	}
	return reached
}

// sanctionedNode matches a node against ShardflowSanctioned by its
// package-stripped name, so the set is package-agnostic. A literal is a
// node of its own ("...(*Thread).step$lit@N"), never in the set.
func sanctionedNode(n *callgraph.Node) bool {
	name := n.Name()
	if n.Pkg != nil {
		name = strings.TrimPrefix(name, n.Pkg.ImportPath+".")
	}
	return ShardflowSanctioned[name]
}

// scanSubstrateAccess reports direct word resolution inside one checked
// node; why says what put the node in the checked set. Nested literals are
// skipped: each is its own node, checked on its own account.
func scanSubstrateAccess(mp *analysis.ModulePass, n *callgraph.Node, why string) {
	info := n.Pkg.TypesInfo
	shallowInspect(n.Body(), func(node ast.Node) {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return
		}
		recv := namedRecv(selection)
		method := selection.Obj().Name()
		switch {
		case isPkgType(recv, memPkgPath, "Region") && method == "WordAddr":
			mp.Reportf(sel.Pos(),
				"(*mem.Region).WordAddr %s (in %s) bypasses the Space access audit: resolve through a sanctioned accessor",
				why, n.Name())
		case isPkgType(recv, memPkgPath, "Space") && (method == "WordAddr" || method == "Region"):
			mp.Reportf(sel.Pos(),
				"mem.Space.%s %s (in %s): cross-shard words must go through the verb protocol",
				method, why, n.Name())
		}
	})
}

// hasMethod reports whether values of the named type (or pointers to them)
// have a method called name.
func hasMethod(n *types.Named, name string) bool {
	var t types.Type = n
	if !types.IsInterface(n) {
		t = types.NewPointer(n)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, n.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}

// isThreadCtx reports whether recv is a thread context: a type with one of
// the ExecutorFuncs methods.
func isThreadCtx(recv *types.Named) bool {
	for _, m := range ExecutorFuncs {
		if hasMethod(recv, m.Method) {
			return true
		}
	}
	return false
}

// offLimits says why an executor-run function must not call a method of recv,
// "" if it may: thread contexts belong to the coroutine the function does not
// run on, and the engine of the dispatch-root packages (the type with Spawn)
// holds every node's state.
func offLimits(recv *types.Named, rootPkgs map[string]bool) string {
	switch {
	case recv == nil || recv.Obj().Pkg() == nil:
		return ""
	case isThreadCtx(recv):
		return "it runs on the executor, off the thread's coroutine, and may touch Go state only"
	case rootPkgs[recv.Obj().Pkg().Path()] && hasMethod(recv, "Spawn"):
		return "engine state belongs to every node, and the function is bound to its caller's"
	}
	return ""
}

// scanLoopCalls reports, inside one node reachable from a function handed to
// `method` (one of ExecutorFuncs), the method calls such a function must not
// make (offLimits). The off-limits methods' own bodies are not scanned: the
// call into them is the finding.
func scanLoopCalls(mp *analysis.ModulePass, n *callgraph.Node, rootPkgs map[string]bool, method string) {
	if n.Fn != nil {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, _ := t.(*types.Named); offLimits(named, rootPkgs) != "" {
				return
			}
		}
	}
	info := n.Pkg.TypesInfo
	shallowInspect(n.Body(), func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, selection := methodCall(info, call)
		if sel == nil {
			return
		}
		recv := namedRecv(selection)
		if why := offLimits(recv, rootPkgs); why != "" {
			mp.Reportf(sel.Pos(), "%s.%s called from a %s function (in %s): %s",
				recv.Obj().Name(), sel.Sel.Name, method, n.Name(), why)
		}
	})
}
