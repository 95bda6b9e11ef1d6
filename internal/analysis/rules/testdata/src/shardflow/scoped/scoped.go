// Package scopedtest exercises shardflow's package rule. It is checked
// under an in-scope import path (the locks scope) with no dispatch root,
// and models the engine shape: the sanctioned accessor names resolve words
// freely, any other function touching the substrate directly is flagged
// whether or not dispatch reaches it.
package scopedtest

import (
	"alock/internal/mem"
	"alock/internal/ptr"
)

// Engine models the engine: execProtocol is in the sanctioned set.
type Engine struct{ space *mem.Space }

// execProtocol is sanctioned: the verb executor resolves words.
func (e *Engine) execProtocol(p ptr.Ptr) uint64 {
	return *e.space.WordAddr(p)
}

// rogue is not sanctioned.
func (e *Engine) rogue(p ptr.Ptr) uint64 {
	return *e.space.WordAddr(p) // want `WordAddr outside the sanctioned accessor set \(in alock/internal/locks\.\(\*Engine\)\.rogue\)`
}

// regionPeek escapes to region-level access, bypassing the audit hook.
func (e *Engine) regionPeek(p ptr.Ptr) uint64 {
	r := e.space.Region(p.NodeID()) // want `Space\.Region outside the sanctioned accessor set`
	return *r.WordAddr(p.Offset())  // want `bypasses the Space access audit`
}

// Thread models the engine thread: step, which applies its local
// operations, is in the sanctioned set.
type Thread struct{ e *Engine }

// WorkLoop models api.Ctx.WorkLoop: the engine calls f between events, on
// the thread's node, in place of the thread.
func (t *Thread) WorkLoop(f func() bool) {
	for f() {
	}
}

// SpinUntil models api.Ctx.SpinUntil: the engine polls p and asks done.
func (t *Thread) SpinUntil(p ptr.Ptr, iter int, done func(v uint64) bool) {
	for !done(0) {
	}
}

// stepThenIdle is not sanctioned, and neither are the functions it hands to
// WorkLoop and SpinUntil: those are dispatch roots of their own.
func (t *Thread) stepThenIdle(p ptr.Ptr) {
	t.WorkLoop(func() bool {
		return *t.e.space.WordAddr(p) == 0 // want `reachable from per-shard dispatch \(in .*stepThenIdle\$lit`
	})
	t.SpinUntil(p, 0, func(v uint64) bool {
		return v == *t.e.space.WordAddr(p.Add(1)) // want `reachable from per-shard dispatch \(in .*stepThenIdle\$lit`
	})
}

// step is sanctioned for its own body only: a function it hands to WorkLoop
// or SpinUntil is thread code, which looks at Go state and the value it is
// given and resolves no words.
func (t *Thread) step(p ptr.Ptr, ready *bool) uint64 {
	t.WorkLoop(func() bool { return !*ready })
	t.WorkLoop(func() bool {
		return *t.e.space.WordAddr(p) == 0 // want `reachable from per-shard dispatch \(in .*\(\*Thread\)\.step\$lit`
	})
	t.SpinUntil(p, 0, func(v uint64) bool { return v != 0 || *ready })
	t.SpinUntil(p, 0, func(v uint64) bool {
		return v == *t.e.space.WordAddr(p.Add(1)) // want `reachable from per-shard dispatch \(in .*\(\*Thread\)\.step\$lit`
	})
	return *t.e.space.WordAddr(p)
}

// helper extends the accessor set explicitly via suppression.
func (t *Thread) helper(p ptr.Ptr) uint64 {
	return *t.e.space.WordAddr(p) //lint:allow shardflow fixture: accepted suppression extends the accessor set
}

// alloc is fine: allocation is not word resolution.
func (e *Engine) alloc(node int) ptr.Ptr {
	return e.space.AllocLine(node)
}
