// Package shardflowtest models the windowed executor's dispatch shape for
// the shardflow analyzer: code reachable from the per-shard dispatch root
// (or from a Spawn-registered thread body) must not resolve memory words
// outside the sanctioned accessor set, while unreachable code may.
package shardflowtest

import (
	"alock/internal/mem"
	"alock/internal/ptr"
)

type Engine struct {
	space  *mem.Space
	bodies []func(t *Thread)
}

type Thread struct{ e *Engine }

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

// step applies the thread's local operations: the sanctioned accessor.
func (t *Thread) step(p ptr.Ptr) uint64 {
	return *t.e.space.WordAddr(p) // sanctioned accessor: no finding
}

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

// snoop is reachable only through the spawned thread body.
func snoop(t *Thread) uint64 {
	var p ptr.Ptr
	return *t.e.space.WordAddr(p) // want `reachable from per-shard dispatch`
}

// debugDump is unreachable from any dispatch root: no findings.
func debugDump(e *Engine) uint64 {
	r := e.space.Region(0)
	return *r.WordAddr(0)
}
