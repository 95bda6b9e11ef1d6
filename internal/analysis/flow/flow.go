// Package flow builds per-function control-flow graphs from the AST and
// provides a small forward dataflow solver over them. Its one client is the
// guardflow analyzer, which uses it to reason about every path through a
// function — early returns, loop back-edges, select branches — instead of a
// single statement order.
//
// The CFG covers the control constructs the module uses: if/else, for and
// range loops (labeled break/continue included), switch and type switch,
// select, return, and panic. `defer` statements appear in their block at
// the registration point and are additionally collected in CFG.Defers;
// clients that care about exit-time effects (a deferred Release) treat a
// registered defer as guaranteed-at-exit, which is sound for the
// unconditional top-of-function defers the codebase uses. goto and
// fallthrough do not occur in the module and are not modeled.
package flow

import (
	"go/ast"
)

// A Block is one straight-line run of statements. Control enters at the
// top and leaves through Succs. A block ending in a branch exposes its
// condition: Cond != nil means Succs[0] is the true edge and Succs[1] the
// false edge, so transfer functions can refine state on outcome checks
// (`if out == api.Acquired`). Multi-way heads (switch, select, range)
// have Cond == nil and one successor per arm.
type Block struct {
	Index int
	Stmts []ast.Node
	Succs []*Block
	Cond  ast.Expr
}

// A CFG is one function body's control-flow graph. Exit is a synthetic
// empty block every return edge targets; paths ending in panic have no
// successor and never reach Exit.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the body, in source order.
	Defers []*ast.DeferStmt
}

// New builds the CFG for a function body.
func New(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{cfg: c}
	c.Entry = b.newBlock()
	c.Exit = &Block{}
	b.cur = c.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.jump(c.Exit)
	c.Exit.Index = len(c.Blocks)
	c.Blocks = append(c.Blocks, c.Exit)
	return c
}

// loopCtx records the jump targets one enclosing loop/switch/select
// provides to break and continue.
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select: continue skips to the loop
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block // nil after a terminal statement (return/panic/branch)
	loops []loopCtx
	// pendingLabel names the label attached to the next loop/switch
	// statement, set by LabeledStmt.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// ensure gives statements after a terminal a dangling (unreachable)
// block, so dead code is still built and analyzed harmlessly.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

// jump edges the current block to target and ends it.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

// takeLabel consumes the pending label for the statement that owns it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findLoop resolves a break/continue target; label "" means innermost.
// wantContinue restricts the search to constructs that accept continue.
func (b *cfgBuilder) findLoop(label string, wantContinue bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		l := &b.loops[i]
		if wantContinue && l.continueTo == nil {
			continue
		}
		if label == "" || l.label == label {
			return l
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(v.List)
	case *ast.LabeledStmt:
		b.pendingLabel = v.Label.Name
		// A label is also a join point (it may be a loop head target).
		next := b.newBlock()
		b.ensure().Succs = append(b.cur.Succs, next)
		b.cur = next
		b.stmt(v.Stmt)
	case *ast.IfStmt:
		b.buildIf(v)
	case *ast.ForStmt:
		b.buildFor(v)
	case *ast.RangeStmt:
		b.buildRange(v)
	case *ast.SwitchStmt:
		b.buildSwitch(v.Init, v.Tag, v.Body)
	case *ast.TypeSwitchStmt:
		b.buildSwitch(v.Init, v.Assign, v.Body)
	case *ast.SelectStmt:
		b.buildSelect(v)
	case *ast.ReturnStmt:
		b.ensure().Stmts = append(b.cur.Stmts, v)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.buildBranch(v)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, v)
		b.ensure().Stmts = append(b.cur.Stmts, v)
	case *ast.ExprStmt:
		b.ensure().Stmts = append(b.cur.Stmts, v)
		if isPanic(v.X) {
			b.cur = nil // panic terminates the path short of Exit
		}
	default:
		// Assignments, declarations, sends, go, inc/dec: straight-line.
		b.ensure().Stmts = append(b.cur.Stmts, s)
	}
}

func (b *cfgBuilder) buildIf(v *ast.IfStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	cond := b.ensure()
	cond.Stmts = append(cond.Stmts, v.Cond)
	cond.Cond = v.Cond
	then := b.newBlock()
	els := b.newBlock()
	cond.Succs = append(cond.Succs, then, els)

	after := &Block{}
	b.cur = then
	b.stmtList(v.Body.List)
	b.joinTo(after)
	b.cur = els
	if v.Else != nil {
		b.stmt(v.Else)
	}
	b.joinTo(after)
	b.commitJoin(after)
}

// joinTo edges the current (possibly terminated) path to a join block not
// yet committed to the CFG.
func (b *cfgBuilder) joinTo(join *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, join)
	}
	b.cur = nil
}

// commitJoin numbers the join block and makes it current. Joins are
// committed after their predecessors so block indices stay roughly in
// source order.
func (b *cfgBuilder) commitJoin(join *Block) {
	join.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, join)
	b.cur = join
}

func (b *cfgBuilder) buildFor(v *ast.ForStmt) {
	label := b.takeLabel()
	if v.Init != nil {
		b.stmt(v.Init)
	}
	head := b.newBlock()
	b.jump(head)
	body := b.newBlock()
	after := &Block{}
	post := &Block{}
	if v.Cond != nil {
		head.Stmts = append(head.Stmts, v.Cond)
		head.Cond = v.Cond
		head.Succs = append(head.Succs, body, after)
	} else {
		head.Succs = append(head.Succs, body)
	}

	continueTo := head
	if v.Post != nil {
		continueTo = post
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: continueTo})
	b.cur = body
	b.stmtList(v.Body.List)
	b.loops = b.loops[:len(b.loops)-1]

	if v.Post != nil {
		b.joinTo(post)
		b.commitJoin(post)
		b.stmt(v.Post)
		b.jump(head)
	} else {
		b.jump(head)
	}
	b.commitJoin(after)
}

func (b *cfgBuilder) buildRange(v *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	b.jump(head)
	// The range head both binds the iteration variables and decides
	// whether another iteration runs.
	head.Stmts = append(head.Stmts, v)
	body := b.newBlock()
	after := &Block{}
	head.Succs = append(head.Succs, body, after)

	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmtList(v.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.jump(head)
	b.commitJoin(after)
}

// buildSwitch handles value and type switches; head is the tag
// expression or the type-switch assignment.
func (b *cfgBuilder) buildSwitch(init ast.Stmt, head ast.Node, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	headBlk := b.ensure()
	if head != nil {
		headBlk.Stmts = append(headBlk.Stmts, head)
	}
	after := &Block{}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	hasDefault := false
	b.cur = nil
	for _, cs := range body.List {
		clause, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		caseBlk := b.newBlock()
		headBlk.Succs = append(headBlk.Succs, caseBlk)
		for _, e := range clause.List {
			caseBlk.Stmts = append(caseBlk.Stmts, e)
		}
		b.cur = caseBlk
		b.stmtList(clause.Body)
		b.joinTo(after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		headBlk.Succs = append(headBlk.Succs, after)
	}
	b.commitJoin(after)
}

func (b *cfgBuilder) buildSelect(v *ast.SelectStmt) {
	label := b.takeLabel()
	headBlk := b.ensure()
	after := &Block{}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	b.cur = nil
	for _, cs := range v.Body.List {
		clause, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		caseBlk := b.newBlock()
		headBlk.Succs = append(headBlk.Succs, caseBlk)
		b.cur = caseBlk
		if clause.Comm != nil {
			b.stmt(clause.Comm)
		}
		b.stmtList(clause.Body)
		b.joinTo(after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.commitJoin(after)
}

func (b *cfgBuilder) buildBranch(v *ast.BranchStmt) {
	label := ""
	if v.Label != nil {
		label = v.Label.Name
	}
	switch v.Tok.String() {
	case "break":
		if l := b.findLoop(label, false); l != nil {
			b.jump(l.breakTo)
			return
		}
	case "continue":
		if l := b.findLoop(label, true); l != nil {
			b.jump(l.continueTo)
			return
		}
	}
	// goto/fallthrough (unused in the module) or unresolved label:
	// conservatively terminate the path.
	b.cur = nil
}

// isPanic reports whether an expression statement is a builtin panic
// call, which terminates its path.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
