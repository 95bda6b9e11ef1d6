// Package callgraph builds a conservative static call graph over the
// packages loaded by internal/analysis. It resolves four call shapes:
//
//   - direct calls, through go/types object resolution;
//   - method calls on concrete receivers, through the selection's method
//     object (embedding-promoted methods included);
//   - interface method calls, resolved to the matching method of every
//     named type in the module that implements the interface;
//   - calls through function values, tracked by a flow-insensitive
//     assignment lattice (variable/field/parameter object → set of
//     possible functions) iterated to a fixpoint, including call-argument
//     to parameter binding and single-result return flow.
//
// The graph is conservative in the direction the determinism analyzers
// need: an edge may exist that no execution takes (interface resolution
// over-approximates), but a call the lattice can see is never dropped.
// `go` and `defer` statements produce edges tagged with their own kinds so
// clients choose whether goroutine hand-offs count as reachability.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"alock/internal/analysis"
)

// Kind classifies how an edge's call site transfers control.
type Kind int

const (
	// KindCall is a plain call expression.
	KindCall Kind = iota
	// KindGo is a `go f(...)` statement: the callee runs on a new
	// goroutine, so synchronous-path analyses may exclude these edges.
	KindGo
	// KindDefer is a `defer f(...)` statement: the callee runs on the
	// caller's goroutine at function exit.
	KindDefer
)

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindGo:
		return "go"
	case KindDefer:
		return "defer"
	default:
		return "call"
	}
}

// A Node is one function with a body in the loaded module: a declared
// function or method (Fn/Decl set) or a function literal (Lit set).
type Node struct {
	// Fn is the type-checker's object for a declared function or method;
	// nil for function literals.
	Fn *types.Func
	// Decl is the declaration carrying Fn's body; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal's AST node; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg owns the node's source file.
	Pkg *analysis.Package
	// Out lists every resolved call edge leaving this node, in source
	// order.
	Out []Edge

	name string
	sig  *types.Signature
}

// Name returns the node's stable, package-qualified name:
// "path.Func", "path.(*Recv).Method", or "path.Parent$lit@line" for
// literals. Hot-path root configs use this format.
func (n *Node) Name() string { return n.name }

// Body returns the node's function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// An Edge is one resolved call site: To may be reached from the owning
// node at Site.
type Edge struct {
	Kind Kind
	Site *ast.CallExpr
	To   *Node
}

// A Graph is the call graph over one loaded package set.
type Graph struct {
	nodes  []*Node
	byFn   map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byName map[string]*Node

	lattice map[types.Object]nodeSet
	// retVar gives the pseudo-object standing for result i of a node, so
	// return flow reuses the assignment lattice.
	retVar map[retKey]*types.Var
	// named lists every non-interface named type in the module, the
	// candidate set for interface call resolution.
	named []*types.Named
	// ifaceImpls caches interface-method resolution.
	ifaceImpls map[*types.Func][]*Node
}

type retKey struct {
	node *Node
	idx  int
}

type nodeSet map[*Node]bool

// Build constructs the call graph for the given packages. Packages must
// share one token.FileSet (the loader guarantees this).
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		byFn:       make(map[*types.Func]*Node),
		byLit:      make(map[*ast.FuncLit]*Node),
		byName:     make(map[string]*Node),
		lattice:    make(map[types.Object]nodeSet),
		retVar:     make(map[retKey]*types.Var),
		ifaceImpls: make(map[*types.Func][]*Node),
	}
	b := &builder{g: g}
	for _, pkg := range pkgs {
		b.collectPackage(pkg)
	}
	b.fixpoint()
	b.buildEdges()
	sort.Slice(g.nodes, func(i, j int) bool {
		a, c := g.nodes[i], g.nodes[j]
		pa := a.Pkg.Fset.Position(a.Pos())
		pc := c.Pkg.Fset.Position(c.Pos())
		if pa.Filename != pc.Filename {
			return pa.Filename < pc.Filename
		}
		return pa.Offset < pc.Offset
	})
	return g
}

// Nodes returns every node in deterministic (position) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Lookup resolves a package-qualified name ("path.(*Recv).Method",
// "path.Func") to its node, or nil if the module declares no such
// function.
func (g *Graph) Lookup(name string) *Node { return g.byName[name] }

// Reachable returns the set of nodes reachable from roots over call and
// defer edges; `go` edges are not followed. Roots are included.
func Reachable(roots []*Node) map[*Node]bool {
	seen := make(map[*Node]bool)
	var stack []*Node
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if e.Kind != KindGo && e.To != nil && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// builder holds the intermediate state of one Build.
type builder struct {
	g       *Graph
	assigns []assignment
	calls   []callsite
}

// assignment is one flow constraint: dst may hold the functions src (an
// expression) or srcObj (an object, for naked returns of named results)
// evaluates to. resultIdx selects the tuple component when src is a
// multi-result call.
type assignment struct {
	pkg       *analysis.Package
	dst       types.Object
	src       ast.Expr
	srcObj    types.Object
	resultIdx int
}

// callsite is one call expression inside a node's body.
type callsite struct {
	pkg    *analysis.Package
	caller *Node
	call   *ast.CallExpr
	kind   Kind
}

// collectPackage creates nodes for every function with a body and records
// the package's flow constraints and call sites.
func (b *builder) collectPackage(pkg *analysis.Package) {
	// Named types feed interface call resolution.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.g.named = append(b.g.named, named)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				if gd, ok := decl.(*ast.GenDecl); ok {
					b.walkGenDecl(pkg, gd)
				}
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{
				Fn:   fn,
				Decl: fd,
				Pkg:  pkg,
				name: FuncName(fn),
				sig:  fn.Type().(*types.Signature),
			}
			b.g.nodes = append(b.g.nodes, n)
			b.g.byFn[fn] = n
			b.g.byName[n.name] = n
			b.walkBody(pkg, n, fd.Body)
		}
	}
}

// walkBody records constraints and call sites from one function body,
// creating child nodes for nested literals (walked recursively, not as
// part of the parent).
func (b *builder) walkBody(pkg *analysis.Package, n *Node, body *ast.BlockStmt) {
	// claimed marks call expressions owned by a go/defer statement so the
	// generic CallExpr case doesn't double-record them.
	claimed := make(map[*ast.CallExpr]Kind)
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			b.addLit(pkg, n, v)
			return false // the literal's body is its own node
		case *ast.GoStmt:
			claimed[v.Call] = KindGo
		case *ast.DeferStmt:
			claimed[v.Call] = KindDefer
		case *ast.CallExpr:
			kind, ok := claimed[v]
			if !ok {
				kind = KindCall
			}
			b.calls = append(b.calls, callsite{pkg: pkg, caller: n, call: v, kind: kind})
		case *ast.AssignStmt:
			b.addAssign(pkg, v.Lhs, v.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(v.Names))
			for i, id := range v.Names {
				lhs[i] = id
			}
			b.addAssign(pkg, lhs, v.Values)
		case *ast.CompositeLit:
			b.addCompositeLit(pkg, v)
		case *ast.ReturnStmt:
			b.addReturn(pkg, n, v)
		}
		return true
	})
}

// walkGenDecl records flow constraints from a package-level declaration
// (`var fv = direct`, struct-literal initializers), so function values
// seeded outside any body still enter the lattice.
func (b *builder) walkGenDecl(pkg *analysis.Package, d *ast.GenDecl) {
	initParent := &Node{name: pkg.ImportPath + ".init"}
	ast.Inspect(d, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			b.addLit(pkg, initParent, v)
			return false
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(v.Names))
			for i, id := range v.Names {
				lhs[i] = id
			}
			b.addAssign(pkg, lhs, v.Values)
		case *ast.CompositeLit:
			b.addCompositeLit(pkg, v)
		case *ast.CallExpr:
			b.calls = append(b.calls, callsite{pkg: pkg, call: v, kind: KindCall})
		}
		return true
	})
}

// addLit registers a function literal as its own node and recurses into
// its body.
func (b *builder) addLit(pkg *analysis.Package, parent *Node, lit *ast.FuncLit) {
	sig, _ := pkg.TypesInfo.Types[lit].Type.(*types.Signature)
	pos := pkg.Fset.Position(lit.Pos())
	n := &Node{
		Lit:  lit,
		Pkg:  pkg,
		name: fmt.Sprintf("%s$lit@%d", parent.name, pos.Line),
		sig:  sig,
	}
	b.g.nodes = append(b.g.nodes, n)
	b.g.byLit[lit] = n
	if _, taken := b.g.byName[n.name]; !taken {
		b.g.byName[n.name] = n
	}
	b.walkBody(pkg, n, lit.Body)
}

// addAssign records lhs_i ← rhs_i constraints for function-typed targets,
// including tuple assignment from a single multi-result call.
func (b *builder) addAssign(pkg *analysis.Package, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		call, ok := astUnparen(rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for i, l := range lhs {
			if dst := b.lhsObject(pkg, l); dst != nil && isFuncTyped(dst.Type()) {
				b.assigns = append(b.assigns, assignment{pkg: pkg, dst: dst, src: call, resultIdx: i})
			}
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		dst := b.lhsObject(pkg, lhs[i])
		if dst == nil || !isFuncTyped(dst.Type()) {
			continue
		}
		b.assigns = append(b.assigns, assignment{pkg: pkg, dst: dst, src: rhs[i]})
	}
}

// addCompositeLit records field ← value constraints for struct literals,
// both keyed and positional, so function values stored in struct fields
// (e.g. Thread.fn) stay tracked.
func (b *builder) addCompositeLit(pkg *analysis.Package, lit *ast.CompositeLit) {
	tv, ok := pkg.TypesInfo.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pkg.TypesInfo.Uses[key]; obj != nil && isFuncTyped(obj.Type()) {
				b.assigns = append(b.assigns, assignment{pkg: pkg, dst: obj, src: kv.Value})
			}
			continue
		}
		if i < st.NumFields() {
			if f := st.Field(i); isFuncTyped(f.Type()) {
				b.assigns = append(b.assigns, assignment{pkg: pkg, dst: f, src: el})
			}
		}
	}
}

// addReturn records result flow: pseudo-result objects of the enclosing
// node gain the returned expressions' function values. Naked returns of
// named results flow the result variables instead.
func (b *builder) addReturn(pkg *analysis.Package, n *Node, ret *ast.ReturnStmt) {
	if n.sig == nil {
		return
	}
	results := n.sig.Results()
	if len(ret.Results) == 0 {
		for i := 0; i < results.Len(); i++ {
			rv := results.At(i)
			if rv.Name() != "" && isFuncTyped(rv.Type()) {
				b.assigns = append(b.assigns, assignment{pkg: pkg, dst: b.retObj(n, i), srcObj: rv})
			}
		}
		return
	}
	if len(ret.Results) != results.Len() {
		return // tuple pass-through return; out of scope for the lattice
	}
	for i, e := range ret.Results {
		if isFuncTyped(results.At(i).Type()) {
			b.assigns = append(b.assigns, assignment{pkg: pkg, dst: b.retObj(n, i), src: e})
		}
	}
}

// retObj returns the pseudo-object standing for result idx of node n.
func (b *builder) retObj(n *Node, idx int) *types.Var {
	k := retKey{n, idx}
	if v, ok := b.g.retVar[k]; ok {
		return v
	}
	v := types.NewVar(token.NoPos, nil, fmt.Sprintf("%s#ret%d", n.name, idx), n.sig.Results().At(idx).Type())
	b.g.retVar[k] = v
	return v
}

// lhsObject resolves an assignment target to its lattice object: a
// variable for identifiers, the field object for selector stores.
func (b *builder) lhsObject(pkg *analysis.Package, e ast.Expr) types.Object {
	switch v := astUnparen(e).(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return nil
		}
		if obj := pkg.TypesInfo.Defs[v]; obj != nil {
			return obj
		}
		return pkg.TypesInfo.Uses[v]
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pkg.TypesInfo.Uses[v.Sel]
	}
	return nil
}

// fixpoint iterates assignment and argument-binding flow until the
// lattice stops growing. Everything is monotone (sets only gain
// members), so termination is bounded by |objects| × |nodes|.
func (b *builder) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, a := range b.assigns {
			var vals nodeSet
			if a.srcObj != nil {
				vals = b.g.lattice[a.srcObj]
			} else if call, ok := astUnparen(a.src).(*ast.CallExpr); ok && a.resultIdx > 0 {
				vals = b.callResults(a.pkg, call, a.resultIdx)
			} else {
				vals = b.funcValues(a.pkg, a.src)
			}
			if b.addVals(a.dst, vals) {
				changed = true
			}
		}
		for _, c := range b.calls {
			for callee := range b.resolveCall(c.pkg, c.call) {
				if b.bindArgs(c.pkg, callee, c.call) {
					changed = true //lint:allow maporder monotone set-union fixpoint: the final lattice is the same under any iteration order
				}
			}
		}
	}
}

// bindArgs flows a call's function-typed arguments into the callee's
// parameter objects.
func (b *builder) bindArgs(pkg *analysis.Package, callee *Node, call *ast.CallExpr) bool {
	if callee.sig == nil {
		return false
	}
	params := callee.sig.Params()
	changed := false
	for i, arg := range call.Args {
		if i >= params.Len() {
			break // variadic tail: elements beyond the last named param
		}
		p := params.At(i)
		if !isFuncTyped(p.Type()) {
			continue
		}
		if b.addVals(p, b.funcValues(pkg, arg)) {
			changed = true
		}
	}
	return changed
}

// addVals merges vals into the lattice cell for obj.
func (b *builder) addVals(obj types.Object, vals nodeSet) bool {
	if len(vals) == 0 {
		return false
	}
	cell := b.g.lattice[obj]
	if cell == nil {
		cell = make(nodeSet)
		b.g.lattice[obj] = cell
	}
	changed := false
	for n := range vals {
		if !cell[n] {
			cell[n] = true
			changed = true //lint:allow maporder monotone set union: membership after the loop is order-independent
		}
	}
	return changed
}

// funcValues returns the set of module functions expr may evaluate to.
func (b *builder) funcValues(pkg *analysis.Package, expr ast.Expr) nodeSet {
	out := make(nodeSet)
	switch v := astUnparen(expr).(type) {
	case *ast.FuncLit:
		if n := b.g.byLit[v]; n != nil {
			out[n] = true
		}
	case *ast.Ident:
		obj := pkg.TypesInfo.Uses[v]
		if obj == nil {
			obj = pkg.TypesInfo.Defs[v]
		}
		b.objValues(obj, out)
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[v]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				for n := range b.g.lattice[sel.Obj()] {
					out[n] = true
				}
			case types.MethodVal, types.MethodExpr:
				if m, ok := sel.Obj().(*types.Func); ok {
					b.methodValues(m, out)
				}
			}
			break
		}
		// Qualified identifier (pkg.Func) or field of a package-level var.
		b.objValues(pkg.TypesInfo.Uses[v.Sel], out)
	case *ast.CallExpr:
		for n := range b.callResults(pkg, v, 0) {
			out[n] = true
		}
	}
	return out
}

// objValues adds the functions an object may hold: the function itself
// for func objects, the lattice cell for variables.
func (b *builder) objValues(obj types.Object, out nodeSet) {
	switch o := obj.(type) {
	case *types.Func:
		b.methodValues(o, out)
	case *types.Var:
		for n := range b.g.lattice[o] {
			out[n] = true
		}
	}
}

// methodValues resolves a func object used as a value: the node itself
// for concrete functions, every implementation for interface methods.
func (b *builder) methodValues(m *types.Func, out nodeSet) {
	if recv := recvOf(m); recv != nil && types.IsInterface(recv.Type()) {
		for _, n := range b.implsOf(m) {
			out[n] = true
		}
		return
	}
	if n := b.g.byFn[origin(m)]; n != nil {
		out[n] = true
	}
}

// callResults returns the functions result idx of a call may evaluate to,
// via the callees' pseudo-result lattice cells.
func (b *builder) callResults(pkg *analysis.Package, call *ast.CallExpr, idx int) nodeSet {
	out := make(nodeSet)
	for callee := range b.resolveCall(pkg, call) {
		if callee.sig == nil || idx >= callee.sig.Results().Len() {
			continue
		}
		if rv, ok := b.g.retVar[retKey{callee, idx}]; ok {
			for n := range b.g.lattice[rv] {
				out[n] = true //lint:allow maporder set union across callees: the merged result set is order-independent
			}
		}
	}
	return out
}

// resolveCall returns every module function a call expression may invoke.
func (b *builder) resolveCall(pkg *analysis.Package, call *ast.CallExpr) nodeSet {
	out := make(nodeSet)
	fun := astUnparen(call.Fun)
	if tv, ok := pkg.TypesInfo.Types[fun]; ok && tv.IsType() {
		return out // conversion, not a call
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, builtin := pkg.TypesInfo.Uses[id].(*types.Builtin); builtin {
			return out
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if selection, ok := pkg.TypesInfo.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			m, ok := selection.Obj().(*types.Func)
			if !ok {
				return out
			}
			if recv := recvOf(m); recv != nil && types.IsInterface(recv.Type()) {
				for _, n := range b.implsOf(m) {
					out[n] = true
				}
				return out
			}
			if n := b.g.byFn[origin(m)]; n != nil {
				out[n] = true
			}
			return out
		}
	}
	// Direct function reference or function value.
	return b.funcValues(pkg, fun)
}

// implsOf resolves an interface method to the matching method node of
// every module type implementing the interface.
func (b *builder) implsOf(m *types.Func) []*Node {
	if cached, ok := b.g.ifaceImpls[m]; ok {
		return cached
	}
	recv := recvOf(m)
	iface, _ := recv.Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var impls []*Node
	for _, named := range b.g.named {
		var recvType types.Type
		if types.Implements(named, iface) {
			recvType = named
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			recvType = ptr
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recvType, true, m.Pkg(), m.Name())
		if impl, ok := obj.(*types.Func); ok {
			if n := b.g.byFn[origin(impl)]; n != nil {
				impls = append(impls, n)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].name < impls[j].name })
	b.g.ifaceImpls[m] = impls
	return impls
}

// buildEdges materializes Out edges from the recorded call sites after
// the lattice has converged.
func (b *builder) buildEdges() {
	type edgeKey struct {
		site *ast.CallExpr
		to   *Node
	}
	seen := make(map[*Node]map[edgeKey]bool)
	for _, c := range b.calls {
		if c.caller == nil {
			continue // package-level initializer: no owning node
		}
		callees := sortedNodes(b.resolveCall(c.pkg, c.call))
		dup := seen[c.caller]
		if dup == nil {
			dup = make(map[edgeKey]bool)
			seen[c.caller] = dup
		}
		for _, to := range callees {
			k := edgeKey{c.call, to}
			if dup[k] {
				continue
			}
			dup[k] = true
			c.caller.Out = append(c.caller.Out, Edge{Kind: c.kind, Site: c.call, To: to})
		}
	}
	for _, n := range b.g.nodes {
		out := n.Out
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Site.Pos() != out[j].Site.Pos() {
				return out[i].Site.Pos() < out[j].Site.Pos()
			}
			return out[i].To.name < out[j].To.name
		})
	}
}

// FuncName renders a declared function's package-qualified name in the
// same format Graph.Lookup accepts: "path.Func" or "path.(*Recv).Method".
func FuncName(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if recv := recvOf(fn); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			star = "*"
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s%s).%s", pkgPath, star, n.Obj().Name(), fn.Name())
		}
	}
	return pkgPath + "." + fn.Name()
}

// recvOf returns fn's receiver variable, or nil for plain functions.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// origin maps an instantiated generic function back to its declaration
// object, the one node keys use.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

func sortedNodes(set nodeSet) []*Node {
	out := make([]*Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func astUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isFuncTyped(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
