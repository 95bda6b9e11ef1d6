package check

import (
	"fmt"
	"math/rand"
	"time"

	"alock/internal/api"
	"alock/internal/ptr"
)

// Transition kinds: the api.Ctx method's name, or a position change.
const (
	opBegin, opExit                    = "begin", "exit" // idle → acquire, critical section → release
	opRead, opRRead, opWrite, opRWrite = "Read", "RRead", "Write", "RWrite"
	opCAS, opRCAS, opSpin              = "CAS", "RCAS", "SpinWhile"
)

// op is one transition: its kind, the word, the CAS compare value, and the
// value written (SpinWhile: the value it waits out).
type op struct {
	kind     string
	addr     ptr.Ptr
	old, val uint64
}

// exec applies o to cur, the word's value: what o returns and what it
// leaves in the word.
func exec(o op, cur uint64) (ret, next uint64) {
	switch o.kind {
	case opWrite, opRWrite:
		return 0, o.val
	case opCAS, opRCAS:
		if cur == o.old {
			return cur, o.val
		}
	}
	return cur, cur
}

// readOnly reports whether the transition may belong to a poll block: a
// read, or a CAS that failed.
func readOnly(o op, ret uint64) bool {
	return o.kind == opRead || o.kind == opRRead || (o.kind == opCAS || o.kind == opRCAS) && ret != o.old
}

// format renders the transition for a witness schedule.
func (o op) format(ret uint64) string {
	switch o.kind {
	case opBegin, opExit:
		return o.kind
	case opWrite, opRWrite:
		return fmt.Sprintf("%s %v := %s", o.kind, o.addr, value(o.val))
	case opCAS, opRCAS:
		return fmt.Sprintf("%s %v %s→%s = %s", o.kind, o.addr, value(o.old), value(o.val), value(ret))
	}
	return fmt.Sprintf("%s %v = %s", o.kind, o.addr, value(ret))
}

// value renders a word: the descriptor sentinels signed, pointers off node
// 0 as pointers, anything else in decimal.
func value(v uint64) string {
	if s := int64(v); s < 0 && s > -16 || ptr.Ptr(v).NodeID() == 0 {
		return fmt.Sprint(s)
	}
	return ptr.Ptr(v).String()
}

// errAlloc reports a handle that allocates after NewHandle: its Go state at
// the start of an operation is not a fresh handle's, which replay assumes.
var errAlloc = fmt.Errorf("check: Alloc after NewHandle (processes are replayed on fresh handles, so a pool must hold only its seed descriptors)")

// thread is the checker's api.Ctx: synchronous, and every shared-memory
// call is one transition the explorer picks. A replay runs the process's
// operation on a fresh handle and answers its calls from feed, one result
// per transition; the first call past feed becomes next and ends the replay.
type thread struct {
	m        *checker
	id       int
	building bool      // inside newHandle
	allocs   []ptr.Ptr // what the handle allocated when first built
	nalloc   int
	feed     []uint64
	seen     []op // transitions issued in this replay
	next     op
}

// replay runs one operation — begin, AcquireTimed, exit, ReleaseAcq — on a
// fresh handle, answering its transitions from feed; an operation that ends
// within feed stops at the next one's begin.
func (t *thread) replay(feed []uint64) {
	t.building, t.nalloc, t.feed, t.seen = true, 0, feed, t.seen[:0]
	defer func() {
		if r := recover(); r != nil && r != any(t) {
			panic(r)
		}
	}()
	h := t.m.cfg.newHandle(t, t.m.cfg.Budget)
	t.building = false
	t.call(op{kind: opBegin})
	st, _ := h.AcquireTimed(lockAddr, api.Exclusive, 0)
	t.call(op{kind: opExit})
	h.ReleaseAcq(lockAddr, api.Exclusive, st)
	t.call(op{kind: opBegin})
}

// call is one transition. While the handle is being built it acts on the
// initial memory instead (a rebuild repeats the first build's writes).
func (t *thread) call(o op) uint64 {
	if t.building {
		ret, next := exec(o, t.m.init[o.addr])
		t.m.init[o.addr] = next
		return ret
	} else if len(t.seen) == len(t.feed) {
		t.next = o
		panic(t) // the frontier: unwind to replay
	}
	t.seen = append(t.seen, o)
	return t.feed[len(t.seen)-1]
}

func (t *thread) NodeID() int                { return t.id % 2 }
func (t *thread) ThreadID() int              { return t.id }
func (t *thread) Read(p ptr.Ptr) uint64      { return t.call(op{kind: opRead, addr: p}) }
func (t *thread) RRead(p ptr.Ptr) uint64     { return t.call(op{kind: opRRead, addr: p}) }
func (t *thread) Write(p ptr.Ptr, v uint64)  { t.call(op{kind: opWrite, addr: p, val: v}) }
func (t *thread) RWrite(p ptr.Ptr, v uint64) { t.call(op{kind: opRWrite, addr: p, val: v}) }
func (t *thread) CAS(p ptr.Ptr, old, new uint64) uint64 {
	return t.call(op{kind: opCAS, addr: p, old: old, val: new})
}
func (t *thread) RCAS(p ptr.Ptr, old, new uint64) uint64 {
	return t.call(op{kind: opRCAS, addr: p, old: old, val: new})
}

// SpinWhile is one transition, enabled once the word differs from v.
func (t *thread) SpinWhile(p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	if deadlineNS > 0 {
		panic("SpinWhile with a deadline" + outOfScope)
	}
	return t.call(op{kind: opSpin, addr: p, val: v})
}

// Fence and Pause only cost time, which the checker does not model.
func (t *thread) Fence()        {}
func (t *thread) Pause(int)     {}
func (t *thread) Stopped() bool { return false }

// Alloc hands out fresh words while the handle is first built and the same
// words, in order, when it is rebuilt; any other Alloc is errAlloc.
func (t *thread) Alloc(words, align int) ptr.Ptr {
	if !t.building {
		panic(errAlloc)
	} else if brk, a := &t.m.brk[t.NodeID()], uint64(align); t.nalloc == len(t.allocs) {
		*brk = (*brk+a-1)/a*a + uint64(words)
		t.allocs = append(t.allocs, ptr.Pack(t.NodeID(), *brk-uint64(words)))
	}
	t.nalloc++
	return t.allocs[t.nalloc-1]
}

// The rest is out of scope: the checker explores untimed handles.
const outOfScope = " is out of scope for check (untimed handles only)"

func (t *thread) Free(ptr.Ptr)                                     { panic("Free" + outOfScope) }
func (t *thread) Now() int64                                       { panic("Now" + outOfScope) }
func (t *thread) Work(time.Duration)                               { panic("Work" + outOfScope) }
func (t *thread) WorkLoop(func(int64, bool) (time.Duration, bool)) { panic("WorkLoop" + outOfScope) }
func (t *thread) Rand() *rand.Rand                                 { panic("Rand" + outOfScope) }
func (t *thread) SpinUntil(ptr.Ptr, int, int64, func(uint64, bool) bool) (uint64, int) {
	panic("SpinUntil" + outOfScope)
}
