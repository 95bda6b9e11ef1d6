package locks

import (
	"alock/internal/api"
	"alock/internal/ptr"
)

// MCSLockWords is the allocation size of an RDMA MCS lock: one cache line
// (word 0 holds the queue tail).
const MCSLockWords = 8

// Descriptor layout for the RDMA MCS lock: word 0 is the spin flag, word 1
// is the next pointer. Padded to a cache line.
//
// Spin-flag protocol: the flag starts at mcsWaiting; in the paper's
// protocol the granter simply writes mcsGranted. Under the timed protocol
// every transition out of mcsWaiting is an rCAS (the lock is all-RDMA, so
// waiter and granter share the remote RMW class and the CASes are mutually
// atomic): a waiter whose deadline passes CASes to mcsAbandoned and leaves,
// and the granter that later bypasses the dead descriptor marks it
// mcsSkipped so the owning thread can recycle it.
const (
	mcsLocked = 0
	mcsNext   = 1

	// MCSDescWords is the descriptor allocation size.
	MCSDescWords = 8

	mcsGranted   = 0
	mcsWaiting   = 1
	mcsAbandoned = 2
	mcsSkipped   = 3
)

// MCSHandle is the paper's second competitor: the classic Mellor-Crummey &
// Scott queue lock ported to RDMA with an RDMA-aware queue (Section 6).
// Like the spinlock competitor it performs every access — enqueue,
// linking, passing, and even the spin on its own descriptor — through RDMA
// verbs, using the loopback path for memory on its own node.
//
// Descriptors queue in distributed memory: each waiter's descriptor lives
// on the waiter's own node, so the spin generates loopback traffic on the
// waiter's own RNIC rather than network traffic to the lock's home node —
// which is why MCS tolerates high contention far better than the spinlock
// (Section 6.2) while still paying verb latency for everything.
type MCSHandle struct {
	ctx api.Ctx
	// timed selects the CAS-based handoff protocol that tolerates waiters
	// abandoning descriptors on deadline; it is a run-wide mode (granters
	// and waiters must agree). Off, the lock is the paper's byte-for-byte.
	timed bool
	pool  api.DescPool
}

var _ api.Handle = (*MCSHandle)(nil)

// NewMCSHandle allocates the thread's first queue descriptor on its own
// node; further descriptors are allocated only for overlapping holds.
func NewMCSHandle(ctx api.Ctx) *MCSHandle {
	h := &MCSHandle{ctx: ctx, pool: api.DescPool{
		Ctx: ctx, Words: MCSDescWords, Spin: mcsLocked, Skip: mcsSkipped,
	}}
	h.pool.Put(ctx.Alloc(MCSDescWords, MCSDescWords))
	return h
}

// Zombies reports abandoned descriptors still awaiting their skip mark.
func (h *MCSHandle) Zombies() int { return h.pool.Zombies() }

// AcquireTimed enqueues onto the lock's tail and waits to reach the head,
// giving up once engine time reaches deadlineNS (0 = block; deadlines
// require the timed protocol). Shared degrades to Exclusive. On success the
// returned state carries the acquisition's descriptor; on timeout the
// descriptor has been CAS-marked abandoned in place — the granter patches
// the queue around it — and nothing is held.
func (h *MCSHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, deadlineNS int64) (api.AcqState, bool) {
	ctx := h.ctx
	if !h.timed {
		deadlineNS = 0
	}
	d := h.pool.Get()
	if deadlineNS > 0 && ctx.Now() >= deadlineNS {
		h.pool.Put(d)
		return api.AcqState{}, false
	}

	// Reset the descriptor with shared-memory writes: the descriptor is
	// the thread's own scratch (on its own node) and is not yet linked
	// into any queue; cross-class 8-byte writes are atomic anyway
	// (Table 1), so this is safe and is how an optimized port prepares
	// its metadata. All *shared* queue state below goes through verbs.
	ctx.Write(d.Add(mcsNext), ptr.Null.Word())
	ctx.Write(d.Add(mcsLocked), mcsWaiting)

	// Swap onto the tail (CAS-retry loop: RDMA has no unconditional swap).
	expected := ptr.Null.Word()
	for {
		prev := ctx.RCAS(l, expected, d.Word())
		if prev == expected {
			break
		}
		expected = prev
	}
	if expected == ptr.Null.Word() {
		ctx.Fence()
		return api.AcqState{Desc: d}, true // queue was empty: lock acquired
	}

	// Link behind the predecessor, then spin on our own descriptor via
	// loopback reads until the predecessor passes the lock.
	prev := ptr.FromWord(expected)
	ctx.RWrite(prev.Add(mcsNext), d.Word())
	for ctx.RRead(d.Add(mcsLocked)) == mcsWaiting {
		// Each poll is a full loopback verb; no extra pacing needed.
		if deadlineNS > 0 && ctx.Now() >= deadlineNS {
			// Deadline passed: abandon the descriptor unless the grant
			// races the timeout and wins (both transitions are rCAS, so
			// exactly one wins).
			if ctx.RCAS(d.Add(mcsLocked), mcsWaiting, mcsAbandoned) == mcsWaiting {
				h.pool.Park(d)
				return api.AcqState{}, false
			}
			break // granted just in time
		}
	}
	ctx.Fence()
	return api.AcqState{Desc: d}, true
}

// ReleaseAcq dequeues: if no successor is queued the tail is CASed back to
// NULL; otherwise we wait for the successor's link and pass the lock by
// clearing its spin flag.
func (h *MCSHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, st api.AcqState) {
	ctx, d := h.ctx, st.Desc
	ctx.Fence()

	if ctx.RCAS(l, d.Word(), ptr.Null.Word()) == d.Word() {
		h.pool.Put(d)
		return
	}
	for ctx.RRead(d.Add(mcsNext)) == ptr.Null.Word() {
	}
	succ := ptr.FromWord(ctx.RRead(d.Add(mcsNext)))
	if !h.timed {
		ctx.RWrite(succ.Add(mcsLocked), mcsGranted)
		h.pool.Put(d)
		return
	}
	for {
		if ctx.RCAS(succ.Add(mcsLocked), mcsWaiting, mcsGranted) == mcsWaiting {
			break // handed off
		}
		// Abandoned successor: patch the queue around its descriptor —
		// either the queue ends there (tail CAS back to NULL releases the
		// lock) or we move on to its own successor, marking the dead
		// descriptor skipped once its next word is no longer needed.
		next := ctx.RRead(succ.Add(mcsNext))
		if next == ptr.Null.Word() {
			if ctx.RCAS(l, succ.Word(), ptr.Null.Word()) == succ.Word() {
				ctx.RWrite(succ.Add(mcsLocked), mcsSkipped)
				h.pool.Put(d)
				return // queue drained; lock released
			}
			for next == ptr.Null.Word() {
				next = ctx.RRead(succ.Add(mcsNext))
			}
		}
		ctx.RWrite(succ.Add(mcsLocked), mcsSkipped)
		succ = ptr.FromWord(next)
	}
	h.pool.Put(d)
}
