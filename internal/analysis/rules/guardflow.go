package rules

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
	"alock/internal/analysis/flow"
)

// apiPkgPath is the import path of the token-lock API package.
const apiPkgPath = "alock/internal/api"

// Guardflow enforces the token-API acquisition contract. At every call
// returning (api.Guard, api.Outcome) — api.TokenLocker.Acquire and any
// wrapper with the same result shape — the site itself must keep both
// results:
//
//   - the Outcome must not be discarded with the blank identifier, and a
//     freshly declared outcome variable must actually be read (`_ = out`
//     is a discard, not a read): a deadline acquisition that never checks
//     for TimedOut treats a dead guard as live;
//   - the Guard must not be discarded with the blank identifier, and the
//     call must not be a statement of its own: if the outcome turns out
//     Acquired there is no way to Release or Abandon, and the lock leaks.
//
// Passing the results straight through (return h.Acquire(...)) is fine —
// the contract transfers to the caller.
//
// Beyond the site, every api.Guard whose acquisition may have succeeded
// must reach a Release/Abandon call, or escape to code that owns it
// (returned, stored, appended, passed to a callee that provably handles its
// guard parameter), on every CFG path. It flags leak-on-early-return,
// guards re-acquired while possibly still held, and releases of
// already-released guards whose ReleaseOutcome is discarded (an intentional
// double release checks for Fenced).
//
// Outcome checks refine the path state: on the true edge of
// `out == api.TimedOut` (or the false edge of out.Granted()) the guard is
// dead and needs no release; on edges proving Acquired/AcquiredLate it
// must be released. A guard whose outcome is never narrowed is treated as
// possibly live on every path.
var Guardflow = &analysis.Analyzer{
	Name: "guardflow",
	Doc: "Acquire call sites must check the Outcome and keep the Guard; a Guard that may be " +
		"live must reach Release/Abandon or escape to its owner on every path; double releases " +
		"must check the outcome",
	RunModule: runGuardflow,
}

// Guard lifetime states, ordered by join severity: a path needing no
// release joins below a path that may still hold the lock.
const (
	gsReleased  int8 = iota + 1 // Release/Abandon reached
	gsEscaped                   // returned/stored/handed to owning code
	gsDismissed                 // outcome proved TimedOut: nothing held
	gsCond                      // acquired, outcome not yet narrowed
	gsLive                      // outcome proved granted: release required
)

// gstate is one guard's state plus the outcome variable its acquisition
// bound, for branch refinement.
type gstate struct {
	st  int8
	out types.Object
}

// gmap is the solver state: live guard objects to their lifetime state.
// Maps are treated as immutable; transfer clones before writing.
type gmap map[types.Object]gstate

func (m gmap) clone() gmap {
	c := make(gmap, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}

func gmapJoin(a, b gmap) gmap {
	out := a.clone()
	for k, v := range b {
		if cur, ok := out[k]; !ok || v.st > cur.st {
			out[k] = v
		}
	}
	return out
}

// guardFn is the per-function analysis context.
type guardFn struct {
	node  *callgraph.Node
	info  *types.Info
	cfg   *flow.CFG
	edges map[*ast.CallExpr][]*callgraph.Node
	// handles[node][i] reports whether the callee releases/escapes its
	// i-th parameter (guard-typed params only; others true vacuously).
	handles map[*callgraph.Node][]bool
	report  func(token.Pos, string, ...any)
}

func runGuardflow(mp *analysis.ModulePass) error {
	g := moduleGraph(mp)

	// Collect the functions that mention guards at all; everything else
	// needs no CFG.
	var fns []*guardFn
	handles := make(map[*callgraph.Node][]bool)
	for _, n := range g.Nodes() {
		if n.Body() == nil || strings.HasSuffix(n.Pkg.Fset.Position(n.Pos()).Filename, "_test.go") {
			continue
		}
		if !mentionsGuard(n) {
			continue
		}
		f := &guardFn{node: n, info: n.Pkg.TypesInfo, cfg: flow.New(n.Body()), handles: handles}
		f.edges = make(map[*ast.CallExpr][]*callgraph.Node)
		for _, e := range n.Out {
			f.edges[e.Site] = append(f.edges[e.Site], e.To)
		}
		fns = append(fns, f)
		handles[n] = optimisticSummary(n)
	}

	// Converge the guard-parameter summaries: start optimistic (every
	// callee handles its guards) and demote until stable. Demotion is
	// monotone, so the loop terminates in ≤ params×fns rounds.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			sum := handles[f.node]
			if !anyTrue(sum) {
				continue
			}
			exit := f.solveParams()
			for i, h := range sum {
				if h && !exit[i] {
					sum[i] = false
					changed = true
				}
			}
		}
	}

	// Final pass: rerun each function's dataflow with reporting on.
	for _, f := range fns {
		f.report = func(pos token.Pos, format string, args ...any) {
			mp.Reportf(pos, format, args...)
		}
		f.check()
	}
	return nil
}

// mentionsGuard reports whether the node's body references the api.Guard
// type anywhere (guard params, guard vars) or makes an acquire-shaped call
// (a bare Acquire statement names no guard).
func mentionsGuard(n *callgraph.Node) bool {
	found := false
	info := n.Pkg.TypesInfo
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if found {
			return false
		}
		switch v := nd.(type) {
		case *ast.CallExpr:
			found = isAcquireShaped(info, v)
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				obj = info.Defs[v]
			}
			found = obj != nil && isGuardType(obj.Type())
		}
		return true
	})
	if found {
		return true
	}
	// A guard-typed parameter may go entirely unused (that is the leak).
	if sig := funcSig(n); sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if isGuardType(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func funcSig(n *callgraph.Node) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		sig, _ := n.Pkg.TypesInfo.Types[n.Lit].Type.(*types.Signature)
		return sig
	}
	return nil
}

func isGuardType(t types.Type) bool {
	named, _ := t.(*types.Named)
	return isPkgType(named, apiPkgPath, "Guard")
}

// optimisticSummary seeds a node's handles vector: true for every
// parameter (guard or not; non-guard entries are never consulted).
func optimisticSummary(n *callgraph.Node) []bool {
	sig := funcSig(n)
	if sig == nil {
		return nil
	}
	sum := make([]bool, sig.Params().Len())
	for i := range sum {
		sum[i] = true
	}
	return sum
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// solveParams runs the dataflow with every guard parameter seeded live
// and reports, per parameter, whether it is handled on all exit paths.
func (f *guardFn) solveParams() []bool {
	sig := funcSig(f.node)
	out := make([]bool, sig.Params().Len())
	entry := make(gmap)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		out[i] = true
		if isGuardType(p.Type()) {
			entry[p] = gstate{st: gsCond}
		}
	}
	in := f.solve(entry)
	exit, reachable := flow.ExitState(f.cfg, in)
	if !reachable {
		return out // every path panics or loops: nothing leaks to a caller
	}
	exitSt := f.transfer(f.cfg.Exit, exit, nil)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if !isGuardType(p.Type()) {
			continue
		}
		if st, ok := exitSt[p]; ok && st.st >= gsCond {
			out[i] = false
		}
	}
	return out
}

// solve runs the forward solver from an entry state.
func (f *guardFn) solve(entry gmap) map[*flow.Block]gmap {
	return flow.Solve(f.cfg, entry, flow.Solver[gmap]{
		Transfer: func(b *flow.Block, in gmap) gmap { return f.transfer(b, in, nil) },
		Branch:   f.refine,
		Join:     gmapJoin,
		Equal:    maps.Equal[gmap, gmap],
	})
}

// check runs the final reporting pass: the acquire-site checks, then
// solve, replay each reachable block once with reporting enabled, and flag
// exit leaks.
func (f *guardFn) check() {
	f.checkSites()
	entry := make(gmap)
	in := f.solve(entry)
	reported := make(map[token.Pos]bool)
	reportOnce := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			f.report(pos, format, args...)
		}
	}
	for _, b := range f.cfg.Blocks {
		st, ok := in[b]
		if !ok {
			continue
		}
		f.transfer(b, st, reportOnce)
	}
	exit, reachable := flow.ExitState(f.cfg, in)
	if !reachable {
		return
	}
	exitSt := f.transfer(f.cfg.Exit, exit, nil)
	// Deterministic order for the leak reports.
	var leaked []types.Object
	for obj, st := range exitSt {
		if st.st >= gsCond {
			leaked = append(leaked, obj)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
	for _, obj := range leaked {
		if _, isParam := obj.(*types.Var); isParam && obj.Pos() < f.node.Body().Pos() {
			// Parameter guards are the caller's problem; solveParams
			// already folded this into the summary consulted there.
			continue
		}
		reportOnce(obj.Pos(), "guard %s may leak: acquired but not released or handed off on every path", obj.Name())
	}
}

// checkSites reports the acquire calls in the node's own body (a nested
// literal is a node of its own) that discard a result or never read the
// outcome they declare.
func (f *guardFn) checkSites() {
	body := f.node.Body()
	shallowInspect(body, func(nd ast.Node) {
		switch s := nd.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isAcquireShaped(f.info, call) {
				f.report(call.Pos(), "Acquire results discarded: the Guard and Outcome must be handled")
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 || len(s.Lhs) != 2 {
				return
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || !isAcquireShaped(f.info, call) {
				return
			}
			guardE, outE := s.Lhs[0], s.Lhs[1]
			if isBlank(outE) {
				f.report(call.Pos(), "Acquire outcome discarded: a TimedOut grant would be treated as held")
			} else if id, ok := outE.(*ast.Ident); ok && s.Tok == token.DEFINE {
				if obj := f.info.Defs[id]; obj != nil && !objRead(f.info, body, obj) {
					f.report(call.Pos(), "Acquire outcome %s is never checked", id.Name)
				}
			}
			if isBlank(guardE) {
				f.report(call.Pos(), "Acquire guard discarded: an Acquired outcome would leak the lock")
			}
		}
	})
}

// objRead reports whether obj is genuinely read inside node: an identifier
// use that is neither the left-hand side of an assignment nor the sole
// operand of a `_ = x` discard.
func objRead(info *types.Info, node ast.Node, obj types.Object) bool {
	excluded := make(map[token.Pos]bool)
	ast.Inspect(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				excluded[id.Pos()] = true
			}
		}
		// `_ = x` is a discard, not a check.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isBlank(as.Lhs[0]) {
			if id, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok {
				excluded[id.Pos()] = true
			}
		}
		return true
	})
	read := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj && !excluded[id.Pos()] {
			read = true
		}
		return !read
	})
	return read
}

// isAcquireShaped reports whether call returns exactly
// (api.Guard, api.Outcome).
func isAcquireShaped(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != 2 {
		return false
	}
	g, _ := tuple.At(0).Type().(*types.Named)
	o, _ := tuple.At(1).Type().(*types.Named)
	return isPkgType(g, apiPkgPath, "Guard") && isPkgType(o, apiPkgPath, "Outcome")
}

// transfer applies one block's statements to the state. report, when
// non-nil, emits the in-block findings (double release, reacquire while
// held).
func (f *guardFn) transfer(b *flow.Block, in gmap, report func(token.Pos, string, ...any)) gmap {
	st := in
	set := func(obj types.Object, gs gstate) {
		if st == nil {
			st = make(gmap)
		}
		st = st.clone()
		st[obj] = gs
	}
	for _, s := range b.Stmts {
		// A release whose call is a statement of its own (or deferred)
		// discards the ReleaseOutcome; anything else consumes it.
		bare := map[*ast.CallExpr]bool{}
		switch v := s.(type) {
		case *ast.ExprStmt:
			if c, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
				bare[c] = true
			}
		case *ast.DeferStmt:
			bare[v.Call] = true
		}
		ast.Inspect(s, func(nd ast.Node) bool {
			switch v := nd.(type) {
			case *ast.FuncLit:
				return false // separate node with its own CFG
			case *ast.CallExpr:
				f.applyCall(v, bare[v], &st, set, report)
			case *ast.AssignStmt:
				f.applyAssign(v, &st, set, report)
			case *ast.ReturnStmt:
				for _, r := range v.Results {
					f.escapeGuardsIn(r, &st, set)
				}
			case *ast.SendStmt:
				f.escapeGuardsIn(v.Value, &st, set)
			}
			return true
		})
	}
	return st
}

// applyCall handles a call site: release/abandon transitions, guard
// escapes through arguments, and double-release reporting.
func (f *guardFn) applyCall(call *ast.CallExpr, bare bool, st *gmap, set func(types.Object, gstate), report func(token.Pos, string, ...any)) {
	name := calleeBaseName(call)
	releasing := name == "Release" || name == "Abandon"
	// Guard as method receiver: g.Release().
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && releasing {
		if obj := guardObjOf(f.info, sel.X, *st); obj != nil {
			f.release(call, bare, obj, st, set, report)
		}
	}
	callees := f.edges[call]
	for i, arg := range call.Args {
		obj := guardObjOf(f.info, arg, *st)
		if obj == nil {
			continue
		}
		if releasing {
			f.release(call, bare, obj, st, set, report)
			continue
		}
		if f.calleesHandle(callees, i) {
			set(obj, gstate{st: gsEscaped})
		}
		// Otherwise: the callee provably drops its guard param; keep the
		// current state so an unreleased path still reports in this
		// function.
	}
}

// release transitions a guard to released, flagging a repeat release
// whose outcome is discarded (bare: the call is its own statement or
// deferred, so Fenced could never be observed).
func (f *guardFn) release(call *ast.CallExpr, bare bool, obj types.Object, st *gmap, set func(types.Object, gstate), report func(token.Pos, string, ...any)) {
	if cur, ok := (*st)[obj]; ok && cur.st == gsReleased && report != nil && bare {
		report(call.Pos(), "guard %s already released on this path: check the ReleaseOutcome (Fenced) if the double release is intentional", obj.Name())
	}
	set(obj, gstate{st: gsReleased})
}

// applyAssign handles acquire bindings, reacquire-while-held, and guard
// escapes through stores.
func (f *guardFn) applyAssign(as *ast.AssignStmt, st *gmap, set func(types.Object, gstate), report func(token.Pos, string, ...any)) {
	// Acquire-shaped binding: g, out := h.Acquire(...).
	if len(as.Rhs) == 1 && len(as.Lhs) == 2 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isAcquireShaped(f.info, call) {
			gObj := assignObj(f.info, as.Lhs[0])
			oObj := assignObj(f.info, as.Lhs[1])
			if gObj != nil {
				if cur, ok := (*st)[gObj]; ok && cur.st == gsLive && report != nil {
					report(call.Pos(), "guard %s reacquired while the previous acquisition may still be held", gObj.Name())
				}
				set(gObj, gstate{st: gsCond, out: oObj})
			}
			return
		}
	}
	// Guard values on the RHS escape to their new home (slice, field,
	// other variable); the new owner carries the obligation.
	for _, r := range as.Rhs {
		f.escapeGuardsIn(r, st, set)
	}
}

// escapeGuardsIn marks every tracked guard referenced in expr as escaped.
func (f *guardFn) escapeGuardsIn(expr ast.Expr, st *gmap, set func(types.Object, gstate)) {
	ast.Inspect(expr, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			if obj := f.info.Uses[id]; obj != nil {
				if _, tracked := (*st)[obj]; tracked {
					set(obj, gstate{st: gsEscaped})
				}
			}
		}
		return true
	})
}

// calleesHandle reports whether every resolved callee handles its
// parameter at argument index i. Unresolved calls (builtins like append,
// stdlib, function values outside the lattice) are assumed to handle the
// guard: the escape rule is deliberately optimistic.
func (f *guardFn) calleesHandle(callees []*callgraph.Node, argIdx int) bool {
	if len(callees) == 0 {
		return true
	}
	for _, c := range callees {
		sum := f.handles[c]
		if sum == nil {
			return true // callee outside the analyzed set (no body)
		}
		idx := argIdx
		if sig := funcSig(c); sig != nil && sig.Variadic() && idx >= len(sum)-1 {
			idx = len(sum) - 1
		}
		if idx >= len(sum) || !sum[idx] {
			return false
		}
	}
	return true
}

// refine narrows guard states on outcome-check edges. succIdx 0 is the
// true edge, 1 the false edge.
func (f *guardFn) refine(b *flow.Block, succIdx int, out gmap) gmap {
	if b.Cond == nil || len(out) == 0 {
		return out
	}
	oObj, verdict := outcomeTest(f.info, b.Cond)
	if oObj == nil {
		return out
	}
	if succIdx == 1 {
		verdict = -verdict
	}
	var target int8
	switch verdict {
	case +1: // outcome proved granted
		target = gsLive
	case -1: // outcome proved timed out
		target = gsDismissed
	default:
		return out
	}
	refined := out
	cloned := false
	for obj, gs := range out {
		if gs.st == gsCond && gs.out != nil && gs.out == oObj {
			if !cloned {
				refined = out.clone() //lint:allow maporder copy-on-write clone: the refined state is the same whichever matching guard triggers it
				cloned = true
			}
			refined[obj] = gstate{st: target, out: gs.out}
		}
	}
	return refined
}

// outcomeTest decodes a condition over an outcome variable. It returns
// the outcome object and +1 if the true branch proves the guard granted,
// -1 if it proves it timed out, 0 if the condition says nothing.
func outcomeTest(info *types.Info, cond ast.Expr) (types.Object, int) {
	switch v := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			obj, verdict := outcomeTest(info, v.X)
			return obj, -verdict
		}
	case *ast.CallExpr:
		// out.Granted() ⇔ Acquired or AcquiredLate.
		if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Granted" {
			if obj := objOf(info, sel.X); obj != nil && isOutcomeType(obj.Type()) {
				return obj, +1
			}
		}
	case *ast.BinaryExpr:
		if v.Op != token.EQL && v.Op != token.NEQ {
			return nil, 0
		}
		oObj, constName := outcomeComparison(info, v.X, v.Y)
		if oObj == nil {
			oObj, constName = outcomeComparison(info, v.Y, v.X)
		}
		if oObj == nil {
			return nil, 0
		}
		verdict := 0
		switch constName {
		case "Acquired", "AcquiredLate":
			// == Acquired proves granted on the true edge; != Acquired
			// proves nothing (AcquiredLate also grants).
			if v.Op == token.EQL {
				verdict = +1
			}
		case "TimedOut":
			if v.Op == token.EQL {
				verdict = -1
			} else {
				verdict = +1
			}
		}
		return oObj, verdict
	}
	return nil, 0
}

// outcomeComparison matches (outcome variable, outcome constant). The
// constant is matched by value against the api package's canonical
// Acquired/TimedOut/AcquiredLate, so re-exported constants (the public
// alock wrapper's `TimedOut = api.TimedOut`) refine exactly like the
// originals.
func outcomeComparison(info *types.Info, varSide, constSide ast.Expr) (types.Object, string) {
	obj := objOf(info, varSide)
	if obj == nil || !isOutcomeType(obj.Type()) {
		return nil, ""
	}
	if _, isConst := obj.(*types.Const); isConst {
		return nil, ""
	}
	c, ok := objOf(info, constSide).(*types.Const)
	if !ok || !isOutcomeType(c.Type()) {
		return nil, ""
	}
	named, _ := c.Type().(*types.Named)
	apiPkg := named.Obj().Pkg()
	if apiPkg == nil {
		return nil, ""
	}
	for _, name := range []string{"Acquired", "TimedOut", "AcquiredLate"} {
		canon, ok := apiPkg.Scope().Lookup(name).(*types.Const)
		if ok && constant.Compare(canon.Val(), token.EQL, c.Val()) {
			return obj, name
		}
	}
	return nil, ""
}

func isOutcomeType(t types.Type) bool {
	named, _ := t.(*types.Named)
	return isPkgType(named, apiPkgPath, "Outcome")
}

// guardObjOf resolves an expression to a tracked guard object, or nil.
func guardObjOf(info *types.Info, e ast.Expr, st gmap) types.Object {
	obj := objOf(info, e)
	if obj == nil {
		return nil
	}
	if _, tracked := st[obj]; tracked {
		return obj
	}
	if isGuardType(obj.Type()) {
		return obj
	}
	return nil
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
