// Package shardflowtest models the windowed executor's dispatch shape for
// the shardflow analyzer: code reachable from the per-shard dispatch root
// (or from a Spawn-registered thread body) must not resolve memory words
// outside the sanctioned accessor set, while unreachable code in a package
// outside the engine and lock scopes (this one) may.
package shardflowtest

import (
	"alock/internal/mem"
	"alock/internal/ptr"
)

type Engine struct {
	space  *mem.Space
	bodies []func(t *Thread)
	nodes  []*node
}

// Node hands out any node's Go state: an engine-level call.
func (e *Engine) Node(i int) *node { return e.nodes[i] }

type Thread struct {
	e     *Engine
	loop  func() bool
	until func(v uint64, now int64) bool
}

// Now is a thread-context call: it completes what the thread has posted.
func (t *Thread) Now() int64 { return 0 }

// node is one node's Go-side state: its threads may share it freely.
type node struct{ queued int }

// Spawn registers a thread body, like the real engine.
func (e *Engine) Spawn(node int, fn func(t *Thread)) {
	e.bodies = append(e.bodies, fn)
}

// execProtocol is sanctioned: its direct accesses are audited at runtime.
func (e *Engine) execProtocol(p ptr.Ptr) uint64 {
	return *e.space.WordAddr(p) // sanctioned accessor: no finding
}

// Read is a thread-local operation: it resolves nothing itself.
func (t *Thread) Read(p ptr.Ptr) uint64 { return t.step(p) }

// step applies the thread's local operations, a parked WorkLoop function's
// next look and a SpinUntil call's next poll among them: the sanctioned
// accessor.
func (t *Thread) step(p ptr.Ptr) uint64 {
	if t.loop != nil && !t.loop() {
		t.loop = nil
	}
	v := *t.e.space.WordAddr(p) // sanctioned accessor: no finding
	if t.until != nil && t.until(v, 0) {
		t.until = nil
	}
	return v
}

// SpinUntil models api.Ctx.SpinUntil as the engine implements it: done is
// parked on the thread and asked by the sanctioned step.
func (t *Thread) SpinUntil(p ptr.Ptr, iter int, done func(v uint64, now int64) bool) {
	t.until = done
}

// WorkLoop models api.Ctx.WorkLoop as the engine implements it: the
// function is parked on the thread and called by the sanctioned step, so no
// call edge the analyzer follows leads to it.
func (t *Thread) WorkLoop(f func() bool) { t.loop = f }

// runWindow is the fixture's dispatch root.
func (e *Engine) runWindow(p ptr.Ptr) {
	defer e.settle(p)
	_ = e.execProtocol(p)
	_ = peekWord(e, p)
	go e.flush(p)
}

// peekWord is reachable from the root and resolves a word directly.
func peekWord(e *Engine, p ptr.Ptr) uint64 {
	return *e.space.WordAddr(p) // want `reachable from per-shard dispatch`
}

// flush runs on a goroutine spawned by the dispatch: go edges count.
func (e *Engine) flush(p ptr.Ptr) {
	*e.space.WordAddr(p) = 0 // want `reachable from per-shard dispatch`
}

// settle is deferred from the dispatch and sidesteps the Space audit
// hook entirely through a Region handle.
func (e *Engine) settle(p ptr.Ptr) {
	r := e.space.Region(0)      // want `reachable from per-shard dispatch`
	_ = *r.WordAddr(p.Offset()) // want `bypasses the Space access audit`
}

// setup registers a thread body: the closure and what it calls become
// dispatch roots, because the window resumes them through channels the
// call graph cannot see.
func setup(e *Engine) {
	e.Spawn(0, func(t *Thread) {
		var p ptr.Ptr
		_ = t.Read(p)
		_ = snoop(t)
	})
}

// serve is a thread body that idles in WorkLoop. Its functions are thread
// code bound to the thread's node: they may look at that node's Go state
// (mine), and must not resolve words, call the thread's own context, or reach
// through the engine for another node's state.
func serve(e *Engine) {
	e.Spawn(0, func(t *Thread) {
		mine := t.e.Node(0) // the body may ask the engine; the function may not
		t.WorkLoop(func() bool { return mine.queued == 0 })
		t.WorkLoop(func() bool { return peekQueue(t) == 0 })
		t.WorkLoop(func() bool {
			var p ptr.Ptr
			return t.Read(p) == 0 // want `Thread\.Read called from a WorkLoop function`
		})
		idle := func() bool {
			return t.e.Node(1).queued == 0 // want `Engine\.Node called from a WorkLoop function`
		}
		t.WorkLoop(idle)
	})
}

// handle is a lock handle in the shape the rw locks use: the wait's deadline
// travels in a field, and done is a method value bound once, in the
// constructor, so the analyzer has to follow it through the field.
type handle struct {
	t        *Thread
	deadline int64
	done     func(v uint64, now int64) bool
	lateDone func(v uint64, now int64) bool
}

func newHandle(t *Thread) *handle {
	h := &handle{t: t}
	h.done, h.lateDone = h.resolved, h.resolvedLate
	return h
}

// resolved reads the value it is handed, the time it is handed and its own
// handle's field: clean.
func (h *handle) resolved(v uint64, now int64) bool {
	return v != 0 || h.deadline > 0 && now >= h.deadline
}

// resolvedLate asks the thread for the time instead of using the one it was
// handed: a call into the coroutine it does not run on.
func (h *handle) resolvedLate(v uint64, _ int64) bool {
	return v != 0 || h.t.Now() >= h.deadline // want `Thread\.Now called from a SpinUntil function`
}

// wait is a thread body that waits on a word through both.
func wait(e *Engine) {
	e.Spawn(0, func(t *Thread) {
		h := newHandle(t)
		var p ptr.Ptr
		h.deadline = t.Now() + 100 // the body may ask; done may not
		t.SpinUntil(p, 0, h.done)
		t.SpinUntil(p, 0, h.lateDone)
		t.SpinUntil(p, 0, func(v uint64, _ int64) bool {
			return v == peekQueue(t)
		})
	})
}

// peekQueue is reachable only from a WorkLoop function and a SpinUntil one.
func peekQueue(t *Thread) uint64 {
	var p ptr.Ptr
	return *t.e.space.WordAddr(p) // want `reachable from per-shard dispatch`
}

// snoop is reachable only through the spawned thread body.
func snoop(t *Thread) uint64 {
	var p ptr.Ptr
	return *t.e.space.WordAddr(p) // want `reachable from per-shard dispatch`
}

// debugDump is unreachable from any dispatch root, in a package outside the
// engine and lock scopes (the harness owns the whole space and may peek
// freely): no findings.
func debugDump(e *Engine) uint64 {
	r := e.space.Region(0)
	return *r.WordAddr(0)
}
