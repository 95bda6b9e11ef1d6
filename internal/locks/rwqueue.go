// rwqueue.go implements rw-queue, a distributed MCS-style queued
// reader/writer lock. The single-word RW locks in rwlock.go keep all state
// in one word of the lock's cache line, so at high contention every waiter
// hammers that word with rCAS retries and the home NIC serializes the
// storm — the same scalability failure the paper's ALock avoids with its
// queue-per-cohort discipline. rw-queue distributes the waiting instead:
//
//   - Every waiter that cannot enter immediately enqueues a descriptor
//     (allocated per acquisition from the thread's free list, on its own
//     node like the exclusive MCS lock in mcs.go) and spins on the
//     descriptor's own word with shared-memory reads — waiting costs the
//     fabric nothing. Per-acquisition descriptors let one thread hold
//     several locks at once.
//   - Readers batch into reader groups: a granted reader admits a reader
//     successor immediately (chain admission), so queued readers still
//     overlap inside the critical section.
//   - The ALock budget idea bounds same-class admission runs in both
//     directions. Arriving readers may barge into the open group through a
//     one-rCAS fast path, but only ReadBudget consecutive times: the
//     admission count rides the group word across drains (an alternating
//     stream of lone readers spends the same budget as one sustained
//     group) and resets only when a grant goes through the queue. Writers
//     symmetrically may claim an idle lock through a one-rCAS fast path —
//     the window that opens right after a group drains — but only
//     WriteBudget consecutive times: the state word counts optimistic
//     writer claims, the count survives release-to-idle, and it resets
//     whenever the lock is granted through the queue, so queue-head
//     waiters are overtaken at most WriteBudget times per episode.
//   - Lock handoff is one rCAS on the tail (or group word) plus a single
//     write to the successor's descriptor — no shared-word polling storm.
//
// Under the timed protocol (token API deadlines) every transition out of a
// descriptor's waiting state is an rCAS, so a waiter whose deadline passes
// can abandon its descriptor in place (CAS waiting -> abandoned) and the
// granter patches the queue around it; a granter instead claims a live
// successor (CAS waiting -> claimed) before doing its group bookkeeping,
// which commits the successor — its own timeout CAS can no longer win. A
// queue-head waiter that times out hands its head position to the next
// live waiter with a distinct head wake value.
//
// Class discipline (Table 1): the lock line's tail and group words are
// mutated exclusively with rCAS from every node; descriptor spin words are
// mutated by rCAS only (timed protocol) or by plain writes with read-only
// polling (paper protocol), and the wake word and descriptor next words
// see only reads and writes (either class), which are atomic with
// everything. Threads poll the group word and spin on their own
// descriptors with shared-memory reads when the memory is node-local.
package locks

import (
	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// RWQueueLockWords is the allocation size of an rw-queue lock: one cache
// line (words 0..2 used; padding prevents false sharing).
const RWQueueLockWords = 8

// Lock-line layout.
const (
	rwqTail  = 0 // queue tail: tagged descriptor pointer, rCAS only
	rwqGroup = 1 // reader-group state word, rCAS only
	rwqWake  = 2 // descriptor to wake on group drain (plain writes/reads)
)

// Descriptor layout: word 0 is the spin word, word 1 the tagged successor
// pointer. Padded to a cache line; descriptors live on their owner's node
// so the spin is a shared-memory read.
const (
	rwqSpin = 0
	rwqNext = 1

	// RWQDescWords is the descriptor allocation size.
	RWQDescWords = 8
)

// Spin-word protocol. The paper-style protocol uses only wait/granted
// (granter: one plain write). The timed protocol adds: abandoned (waiter
// timed out; granter must patch around the descriptor), skipped (granter
// finished patching; the owner may recycle the descriptor), claimed
// (granter reserved the waiter before its bookkeeping; the waiter is
// committed and spins on), and head (the waiter inherited the queue head
// position and must poll the group word itself rather than enter).
const (
	rwqSpinGranted = 0
	rwqSpinWait    = 1
	rwqSpinAband   = 2
	rwqSpinSkip    = 3
	rwqSpinClaim   = 4
	rwqSpinHead    = 5
)

// Descriptors are 8-word aligned, so a descriptor pointer's low bits are
// free: bit 0 of a queued pointer tags the waiter's class. Null (0) stays
// unambiguous because no allocation has offset 0.
const rwqWriterTag = 1

// Group-word layout. The word is mutated only by rCAS; all fields move
// together under one CAS.
const (
	rwqRdActiveShift = 0  // bits 0..15: readers inside the lock
	rwqWrActiveBit   = 16 // bit 16: a writer inside the lock
	rwqWrWaitBit     = 17 // bit 17: the queue-head writer awaits the drain wake
	rwqGrantsShift   = 18 // bits 18..25: readers admitted into this group
	rwqWClaimShift   = 26 // bits 26..33: consecutive optimistic writer claims

	rwqFieldMask  = 0xffff
	rwqGrantsMask = 0xff
)

func rwqRdActive(s uint64) uint64 { return (s >> rwqRdActiveShift) & rwqFieldMask }
func rwqWrActive(s uint64) bool   { return s&(1<<rwqWrActiveBit) != 0 }
func rwqWrWaiting(s uint64) bool  { return s&(1<<rwqWrWaitBit) != 0 }
func rwqGrants(s uint64) uint64   { return (s >> rwqGrantsShift) & rwqGrantsMask }
func rwqWClaims(s uint64) uint64  { return (s >> rwqWClaimShift) & rwqGrantsMask }

// writerOwns is the group word every queue-mediated writer grant installs:
// exactly the writer bit, both budget counts reset.
const writerOwns = 1 << rwqWrActiveBit

// One acquisition's state travels in an api.AcqState from the acquire path
// to the matching release:
//
//   - Desc is the queue descriptor, Null for fast-path acquisitions. The
//     word queued on the tail is Desc.Word() for a reader and
//     Desc.Word()|rwqWriterTag for a writer.
//   - Word is the last group word this acquisition observed or installed —
//     the optimistic expected value for the release path's first rCAS. A
//     stale value only costs one failed CAS (the retry loop reseeds from
//     the returned previous value), never correctness.
//   - Flags: rwqQueuedRead marks a shared acquisition that went through the
//     queue (not the fast path); rwqSuccDone marks that its queue successor
//     was already admitted/registered at grant time.
const (
	rwqQueuedRead = 1 << iota
	rwqSuccDone
)

// spinDescTimed outcomes.
const (
	rwqSpinOutGranted = iota
	rwqSpinOutHead
	rwqSpinOutTimeout
)

// RWQueueHandle is one thread's handle onto the queued reader/writer lock.
// Descriptors come from a per-thread free list, one per outstanding
// acquisition, so a thread may hold several rw-queue locks concurrently.
type RWQueueHandle struct {
	ctx api.Ctx
	cfg RWConfig
	// timed selects the CAS-based descriptor protocol that tolerates
	// abandonment on deadline; it is a run-wide mode (granters and waiters
	// must agree). Off, handoff is the plain-write protocol.
	timed bool
	pool  api.DescPool
	// deadline is the deadline of the acquisition in progress, where the
	// waits' done functions below find it (0 = none). They are method values
	// bound once here: api.Ctx.SpinUntil may call them off the thread, and
	// wants no closure made per wait.
	deadline                       int64
	descDone, grantDone, groupDone func(v uint64, now int64) bool
}

var _ api.Handle = (*RWQueueHandle)(nil)

// NewRWQueueHandle allocates the thread's first queue descriptor on its
// own node; more are allocated only for overlapping holds.
func NewRWQueueHandle(ctx api.Ctx, cfg RWConfig) *RWQueueHandle {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &RWQueueHandle{ctx: ctx, cfg: cfg, pool: api.DescPool{
		Ctx: ctx, Words: RWQDescWords, Spin: rwqSpin, Skip: rwqSpinSkip,
	}}
	h.descDone, h.grantDone, h.groupDone = h.descResolved, h.descGranted, h.groupOpen
	h.pool.Put(ctx.Alloc(RWQDescWords, RWQDescWords))
	return h
}

// Zombies reports abandoned descriptors still awaiting their skip mark.
func (h *RWQueueHandle) Zombies() int { return h.pool.Zombies() }

// poll reads a lock-line word with the cheapest atomic class available:
// shared-memory on the lock's home node, a verb elsewhere.
func (h *RWQueueHandle) poll(p ptr.Ptr) uint64 {
	if p.NodeID() == h.ctx.NodeID() {
		return h.ctx.Read(p)
	}
	return h.ctx.RRead(p)
}

// write stores through the thread's own access class (both classes of
// 8-byte write are atomic with everything, Table 1).
func (h *RWQueueHandle) write(p ptr.Ptr, v uint64) {
	if p.NodeID() == h.ctx.NodeID() {
		h.ctx.Write(p, v)
		return
	}
	h.ctx.RWrite(p, v)
}

// expired reports whether the acquisition in progress has a deadline and now
// is past it.
func (h *RWQueueHandle) expired(now int64) bool {
	return h.deadline > 0 && now >= h.deadline
}

// repoll is the back-off and next look of a wait on the group word at p. On
// the lock's home node the look is a shared-memory spin that returns once
// groupDone says there is something to act on (api.Ctx.SpinUntil: the polls
// in between never reach the caller); elsewhere it is one verb, and the
// caller's loop comes round again.
func (h *RWQueueHandle) repoll(p ptr.Ptr, iter int) (uint64, int) {
	h.ctx.Pause(iter)
	if p.NodeID() == h.ctx.NodeID() {
		return h.ctx.SpinUntil(p, iter+1, h.groupDone)
	}
	return h.ctx.RRead(p), iter + 1
}

// groupOpen is the queue head's wait on the group word: over when no writer
// holds the lock or awaits the drain, or at the deadline.
func (h *RWQueueHandle) groupOpen(s uint64, now int64) bool {
	return !rwqWrActive(s) && !rwqWrWaiting(s) || h.expired(now)
}

// descResolved is spinDescTimed's wait: over when a granter has resolved the
// descriptor, or at the deadline if it is still merely waiting.
func (h *RWQueueHandle) descResolved(v uint64, now int64) bool {
	return v == rwqSpinGranted || v == rwqSpinHead || v == rwqSpinWait && h.expired(now)
}

// descGranted is spinDescWait's wait.
func (h *RWQueueHandle) descGranted(v uint64, _ int64) bool { return v == rwqSpinGranted }

// spinDescTimed waits on the acquisition's own descriptor — a shared-memory
// spin, the MCS property that keeps waiting off the fabric entirely — until
// a granter resolves it: granted, promoted to queue head, or (past the
// deadline) successfully abandoned. A descriptor in the claimed state is
// committed: the grant is already in flight, so the deadline no longer
// applies and the only exits are granted or head.
func (h *RWQueueHandle) spinDescTimed(d ptr.Ptr, deadlineNS int64) int {
	spin := d.Add(rwqSpin)
	h.deadline = deadlineNS
	v, iter := uint64(0), 0
	for {
		switch v, iter = h.ctx.SpinUntil(spin, iter, h.descDone); v {
		case rwqSpinGranted:
			return rwqSpinOutGranted
		case rwqSpinHead:
			return rwqSpinOutHead
		}
		// Still waiting, past the deadline. The abandon CAS and the granter's
		// claim/grant CAS share the remote RMW class, so exactly one wins.
		if h.ctx.RCAS(spin, rwqSpinWait, rwqSpinAband) == rwqSpinWait {
			return rwqSpinOutTimeout
		}
		// A grant raced the timeout and won: re-read, back-off kept.
	}
}

// resetDesc prepares a descriptor for an enqueue with shared-memory
// writes: it is the thread's own scratch and not yet linked into any queue.
func (h *RWQueueHandle) resetDesc(d ptr.Ptr) {
	h.ctx.Write(d.Add(rwqSpin), rwqSpinWait)
	h.ctx.Write(d.Add(rwqNext), ptr.Null.Word())
}

// swapTail swaps the tagged descriptor word onto the queue tail (CAS-retry
// loop: RDMA has no unconditional swap) and returns the predecessor word.
func (h *RWQueueHandle) swapTail(l ptr.Ptr, tagged uint64) uint64 {
	tail := l.Add(rwqTail)
	expected := ptr.Null.Word()
	for {
		prev := h.ctx.RCAS(tail, expected, tagged)
		if prev == expected {
			return expected
		}
		expected = prev
	}
}

// claimNext walks the queue from the tagged successor word `next`,
// bypassing abandoned descriptors, until it claims a live successor (spin
// word CAS wait -> claimed) or finds the queue drained (the last
// descriptor was abandoned and the tail CASes back to NULL). Bypassed
// descriptors are marked skipped once their next word is no longer needed,
// releasing them to their owners. Returns the claimed successor's tagged
// word; ok is false when the queue drained. Timed protocol only.
func (h *RWQueueHandle) claimNext(l ptr.Ptr, next uint64) (uint64, bool) {
	for {
		succ := ptr.FromWord(next &^ rwqWriterTag)
		if h.ctx.RCAS(succ.Add(rwqSpin), rwqSpinWait, rwqSpinClaim) == rwqSpinWait {
			return next, true
		}
		// Abandoned: read its successor, patching the tail if it was last.
		next2 := h.poll(succ.Add(rwqNext))
		if next2 == ptr.Null.Word() {
			if h.ctx.RCAS(l.Add(rwqTail), next, ptr.Null.Word()) == next {
				h.write(succ.Add(rwqSpin), rwqSpinSkip)
				return 0, false
			}
			iter := 0
			for next2 == ptr.Null.Word() {
				h.ctx.Pause(iter)
				iter++
				next2 = h.poll(succ.Add(rwqNext))
			}
		}
		h.write(succ.Add(rwqSpin), rwqSpinSkip)
		next = next2
	}
}

// abandonHead dequeues a queue-head waiter that timed out while polling
// the group word: either the queue ends at it (tail CAS back to NULL) or
// the next live waiter inherits the head position through the head wake
// value. The descriptor was never granted, so it is immediately reusable.
// own is the waiter's queued word (descriptor plus class tag).
func (h *RWQueueHandle) abandonHead(l ptr.Ptr, own uint64) {
	d := ptr.FromWord(own &^ rwqWriterTag)
	next := h.ctx.Read(d.Add(rwqNext))
	if next == ptr.Null.Word() {
		if h.ctx.RCAS(l.Add(rwqTail), own, ptr.Null.Word()) == own {
			h.pool.Put(d)
			return
		}
		iter := 0
		for next == ptr.Null.Word() {
			h.ctx.Pause(iter)
			iter++
			next = h.ctx.Read(d.Add(rwqNext))
		}
	}
	if tagged, ok := h.claimNext(l, next); ok {
		succ := ptr.FromWord(tagged &^ rwqWriterTag)
		h.write(succ.Add(rwqSpin), rwqSpinHead)
	}
	h.pool.Put(d)
}

// --- Reader side ---

// readerFastEligible reports whether an arriving reader may barge into the
// group through the fast path under state s: never past a writer (active or
// registered for the wake), and never past ReadBudget admissions — the
// bounded same-class admission run that keeps a queued writer's wait
// finite, ALock's budget idea applied to the reader cohort. The admission
// count rides the group word across a drain (drainExit only decrements the
// active count), so an alternating stream of lone readers — each forming a
// "fresh" group of one — consumes the same budget as one sustained group;
// only a queue-mediated grant reopens the window, exactly like the writer
// claim count riding the idle word.
func (h *RWQueueHandle) readerFastEligible(s uint64) bool {
	return !rwqWrActive(s) && !rwqWrWaiting(s) &&
		rwqGrants(s) < uint64(h.cfg.ReadBudget)
}

// readerFastEnter computes the successor state of a fast-path admission.
func (h *RWQueueHandle) readerFastEnter(s uint64) uint64 {
	if rwqRdActive(s) == 0 {
		// Entering a reader episode restarts the writer's post-drain claim
		// window. The reader admission count deliberately carries over: a
		// fast-path "fresh" group continues the previous episode's budget
		// rather than opening a new one.
		s &^= uint64(rwqGrantsMask) << rwqWClaimShift
	}
	return rwqGroupJoin(s)
}

// rwqGroupOpen computes the state of a brand-new reader group opened by a
// queue-mediated grant: both budget counts reset — the queue-head reader
// waited its turn, so the fast-path window reopens behind it — and the
// head itself is the group's first admission.
func rwqGroupOpen(s uint64) uint64 {
	ns := s &^ (uint64(rwqGrantsMask) << rwqGrantsShift)
	ns &^= uint64(rwqGrantsMask) << rwqWClaimShift
	return ns + 1<<rwqRdActiveShift + 1<<rwqGrantsShift
}

// rwqGroupJoin admits one more reader into the open group, saturating the
// admission count at its field width (queued FIFO readers are admitted
// past the budget — they already waited their turn — so the count only
// gates the fast path).
func rwqGroupJoin(s uint64) uint64 {
	ns := s + 1<<rwqRdActiveShift
	if rwqGrants(s) < rwqGrantsMask {
		ns += 1 << rwqGrantsShift
	}
	return ns
}

// AcquireTimed implements api.Handle.
func (h *RWQueueHandle) AcquireTimed(l ptr.Ptr, mode api.Mode, deadlineNS int64) (api.AcqState, bool) {
	if mode == api.Shared {
		return h.acquireShared(l, deadlineNS)
	}
	return h.acquireExcl(l, deadlineNS)
}

// ReleaseAcq implements api.Handle.
func (h *RWQueueHandle) ReleaseAcq(l ptr.Ptr, mode api.Mode, st api.AcqState) {
	if mode == api.Shared {
		h.releaseShared(l, &st)
		return
	}
	h.releaseExcl(l, st)
}

// acquireShared acquires in shared mode, giving up at deadlineNS (0 =
// block; deadlines require the timed protocol). Like the single-word
// locks, the acquire is verb-frugal: the first rCAS is seeded
// optimistically (a pristine idle lock costs exactly one verb) and every
// failed rCAS returns the current word, which seeds the next attempt.
func (h *RWQueueHandle) acquireShared(l ptr.Ptr, deadlineNS int64) (api.AcqState, bool) {
	if !h.timed {
		deadlineNS = 0
	}
	group := l.Add(rwqGroup)
	// Fast path: join the open reader group with a single rCAS.
	s := uint64(0)
	for h.readerFastEligible(s) {
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			return api.AcqState{}, false // gave up holding nothing
		}
		ns := h.readerFastEnter(s)
		prev := h.ctx.RCAS(group, s, ns)
		if prev == s {
			h.ctx.Fence()
			return api.AcqState{Word: ns}, true
		}
		s = prev
	}
	return h.rlockQueued(l, deadlineNS)
}

// rlockQueued is the reader slow path: enqueue, wait for admission, then
// chain-admit a reader successor (or register a writer successor for the
// drain wake) so the group keeps its concurrency.
func (h *RWQueueHandle) rlockQueued(l ptr.Ptr, deadlineNS int64) (api.AcqState, bool) {
	d := h.pool.Get()
	if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
		h.pool.Put(d)
		return api.AcqState{}, false
	}
	h.resetDesc(d)
	a := &api.AcqState{Desc: d}

	pred := h.swapTail(l, d.Word()) // reader class: tag bit clear
	if pred == ptr.Null.Word() {
		if !h.readerHeadLoop(l, a, deadlineNS) {
			return api.AcqState{}, false
		}
	} else {
		// Link behind the predecessor and spin on our own descriptor; the
		// granter has already counted us into the group when it clears the
		// flag. We did not observe the group word, so guess the smallest
		// consistent state for the release path's optimistic rCAS.
		p := ptr.FromWord(pred &^ rwqWriterTag)
		h.write(p.Add(rwqNext), d.Word())
		switch h.spinDescTimed(d, deadlineNS) {
		case rwqSpinOutTimeout:
			h.pool.Park(d)
			return api.AcqState{}, false
		case rwqSpinOutHead:
			if !h.readerHeadLoop(l, a, deadlineNS) {
				return api.AcqState{}, false
			}
		default:
			a.Word = 1<<rwqRdActiveShift + 1<<rwqGrantsShift
		}
	}

	a.Flags = rwqQueuedRead
	if h.handleSuccessor(l, a, h.ctx.Read(d.Add(rwqNext))) {
		a.Flags |= rwqSuccDone
	}
	h.ctx.Fence()
	return *a, true
}

// readerHeadLoop is the queue-head reader's wait: admit ourselves as soon
// as no writer holds the lock or awaits the drain. (wrWaiting implies its
// writer is still queued, so a queue-head reader only ever sees the narrow
// window where a departing writer has dequeued but not yet cleared
// wrActive.) On deadline the head position is passed on via abandonHead.
func (h *RWQueueHandle) readerHeadLoop(l ptr.Ptr, a *api.AcqState, deadlineNS int64) bool {
	group := l.Add(rwqGroup)
	h.deadline = deadlineNS
	s := h.poll(group)
	iter := 0
	for {
		if !rwqWrActive(s) && !rwqWrWaiting(s) {
			var ns uint64
			if rwqRdActive(s) == 0 {
				ns = rwqGroupOpen(s) // queue-mediated fresh group: counts reset
			} else {
				ns = rwqGroupJoin(s) // FIFO-entitled: budget does not gate
			}
			prev := h.ctx.RCAS(group, s, ns)
			if prev == s {
				a.Word = ns
				return true
			}
			s = prev
			continue
		}
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			h.abandonHead(l, a.Desc.Word())
			return false
		}
		s, iter = h.repoll(group, iter)
	}
}

// handleSuccessor performs a granted reader's queue duty for the given
// tagged successor word: admit a reader successor into the group and wake
// it, or register a writer successor for the drain wake (wake pointer
// first, then the flag, so the draining reader always finds the pointer).
// Under the timed protocol the successor is claimed first — bypassing any
// abandoned descriptors — so the bookkeeping below always lands on a live
// waiter (a claimed writer stays claimed until the drain wake grants it).
// It reports whether the duty is done (a successor was handled, or the
// queue drained while bypassing the dead tail).
func (h *RWQueueHandle) handleSuccessor(l ptr.Ptr, a *api.AcqState, next uint64) bool {
	if next == ptr.Null.Word() {
		return false
	}
	if h.timed {
		var ok bool
		next, ok = h.claimNext(l, next)
		if !ok {
			return true // queue drained: no duty left
		}
	}
	group := l.Add(rwqGroup)
	succ := ptr.FromWord(next &^ rwqWriterTag)
	if next&rwqWriterTag != 0 {
		// Writer successor: it is woken by whichever reader drains the
		// group last, via the wake pointer.
		h.write(l.Add(rwqWake), succ.Word())
		s := a.Word
		for {
			prev := h.ctx.RCAS(group, s, s|1<<rwqWrWaitBit)
			if prev == s {
				a.Word = s | 1<<rwqWrWaitBit
				return true
			}
			s = prev
		}
	}
	// Reader successor: chain admission — count it into the group, then
	// one write to its descriptor. It will chain its own successor.
	s := a.Word
	for {
		ns := rwqGroupJoin(s)
		prev := h.ctx.RCAS(group, s, ns)
		if prev == s {
			a.Word = ns
			break
		}
		s = prev
	}
	h.write(succ.Add(rwqSpin), rwqSpinGranted)
	return true
}

// releaseShared releases a shared acquisition (a is the caller's copy: the
// late successor duty updates its group-word seed for the drain exit).
func (h *RWQueueHandle) releaseShared(l ptr.Ptr, a *api.AcqState) {
	h.ctx.Fence()
	if a.Flags&(rwqQueuedRead|rwqSuccDone) == rwqQueuedRead {
		h.readerDequeue(l, a)
	}
	h.drainExit(l, a.Word)
	h.pool.Put(a.Desc)
}

// readerDequeue removes a queued reader whose successor was not handled at
// grant time: either the queue still ends at us (CAS the tail back to
// NULL), or a successor is linking right now — wait for the link and do the
// grant-time duty late.
func (h *RWQueueHandle) readerDequeue(l ptr.Ptr, a *api.AcqState) {
	d := a.Desc
	next := h.ctx.Read(d.Add(rwqNext))
	if next == ptr.Null.Word() {
		if h.ctx.RCAS(l.Add(rwqTail), d.Word(), ptr.Null.Word()) == d.Word() {
			return
		}
		iter := 0
		for next == ptr.Null.Word() {
			h.ctx.Pause(iter)
			iter++
			next = h.ctx.Read(d.Add(rwqNext))
		}
	}
	h.handleSuccessor(l, a, next)
}

// drainExit decrements the active-reader count; the reader that drains the
// group with a writer registered transfers the lock in the same rCAS and
// wakes the writer with one descriptor write.
func (h *RWQueueHandle) drainExit(l ptr.Ptr, seen uint64) {
	group := l.Add(rwqGroup)
	s := seen
	for {
		transfer := rwqRdActive(s) == 1 && rwqWrWaiting(s)
		var ns uint64
		if transfer {
			ns = 1 << rwqWrActiveBit // group closed: the waked writer owns the lock
		} else {
			ns = s - 1<<rwqRdActiveShift
		}
		prev := h.ctx.RCAS(group, s, ns)
		if prev == s {
			if transfer {
				w := ptr.FromWord(h.poll(l.Add(rwqWake)))
				h.write(w.Add(rwqSpin), rwqSpinGranted)
			}
			return
		}
		s = prev
	}
}

// --- Writer side ---

// writerFastEligible reports whether a writer may claim the lock through
// the optimistic fast path under state s: the lock must look idle, and the
// consecutive-claim count must be under WriteBudget — the post-drain
// fast-claim window, bounded so queue-head waiters lose the claim race at
// most WriteBudget times before a queue-mediated grant resets the count
// (the reader budget's symmetric twin).
func (h *RWQueueHandle) writerFastEligible(s uint64) bool {
	return rwqRdActive(s) == 0 && !rwqWrActive(s) && !rwqWrWaiting(s) &&
		rwqWClaims(s) < uint64(h.cfg.WriteBudget)
}

// writerFastEnter computes the successor state of an optimistic claim: the
// writer bit plus the bumped claim count (stale reader grants cleared).
func writerFastEnter(s uint64) uint64 {
	c := rwqWClaims(s)
	if c < rwqGrantsMask {
		c++
	}
	return 1<<rwqWrActiveBit | c<<rwqWClaimShift
}

// acquireExcl acquires in exclusive mode, giving up at deadlineNS (0 =
// block; deadlines require the timed protocol).
func (h *RWQueueHandle) acquireExcl(l ptr.Ptr, deadlineNS int64) (api.AcqState, bool) {
	if !h.timed {
		deadlineNS = 0
	}
	group := l.Add(rwqGroup)

	// Optimistic: an idle lock is claimed with a single rCAS, skipping the
	// enqueue round trip, for at most WriteBudget consecutive claims. The
	// first attempt assumes a pristine word; failures seed the next.
	s := uint64(0)
	for h.writerFastEligible(s) {
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			return api.AcqState{}, false
		}
		ns := writerFastEnter(s)
		prev := h.ctx.RCAS(group, s, ns)
		if prev == s {
			h.ctx.Fence()
			return api.AcqState{Word: ns}, true // not enqueued: release has no queue duty
		}
		s = prev
	}

	d := h.pool.Get()
	if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
		h.pool.Put(d)
		return api.AcqState{}, false
	}
	h.resetDesc(d)
	tagged := d.Word() | rwqWriterTag
	pred := h.swapTail(l, tagged)
	if pred != ptr.Null.Word() {
		// Link behind the predecessor and spin on our own descriptor. The
		// handoff that wakes us leaves wrActive set for us.
		p := ptr.FromWord(pred &^ rwqWriterTag)
		h.write(p.Add(rwqNext), tagged)
		switch h.spinDescTimed(d, deadlineNS) {
		case rwqSpinOutTimeout:
			h.pool.Park(d)
			return api.AcqState{}, false
		case rwqSpinOutGranted:
			h.ctx.Fence()
			return api.AcqState{Desc: d, Word: writerOwns}, true
		}
		// Inherited the queue head: fall through to the head loop.
	}
	if !h.writerHeadLoop(l, d, deadlineNS) {
		return api.AcqState{}, false
	}
	h.ctx.Fence()
	return api.AcqState{Desc: d, Word: writerOwns}, true
}

// writerHeadLoop is the queue-head writer's wait: claim directly once
// idle, or register for the drain wake (wake pointer first, then the
// flag) and spin on our own descriptor. Registration commits the writer —
// under the timed protocol its spin word moves to claimed first, so its
// own deadline CAS can no longer win and the drain wake always lands.
func (h *RWQueueHandle) writerHeadLoop(l ptr.Ptr, d ptr.Ptr, deadlineNS int64) bool {
	group := l.Add(rwqGroup)
	h.deadline = deadlineNS
	s := h.poll(group)
	iter := 0
	for {
		if !rwqWrActive(s) {
			if rwqRdActive(s) == 0 && !rwqWrWaiting(s) {
				// Queue-mediated claim: the word resets to exactly the
				// writer bit, restarting the optimistic-claim window.
				prev := h.ctx.RCAS(group, s, writerOwns)
				if prev == s {
					return true
				}
				s = prev
				continue
			}
			if rwqRdActive(s) > 0 && !rwqWrWaiting(s) {
				if h.timed {
					h.ctx.Write(d.Add(rwqSpin), rwqSpinClaim) // commit: no abandon past here
				}
				h.write(l.Add(rwqWake), d.Word())
				prev := h.ctx.RCAS(group, s, s|1<<rwqWrWaitBit)
				if prev == s {
					h.spinDescWait(d) // the drain transfer installs writerOwns
					return true
				}
				s = prev
				continue
			}
		}
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			h.abandonHead(l, d.Word()|rwqWriterTag)
			return false
		}
		// A departing writer is between its dequeue and clearing wrActive
		// (narrow race window): back off and re-poll.
		s, iter = h.repoll(group, iter)
	}
}

// spinDescWait waits for the granted value on a committed descriptor (the
// registered drain-wake target: no timeout can apply).
func (h *RWQueueHandle) spinDescWait(d ptr.Ptr) {
	h.ctx.SpinUntil(d.Add(rwqSpin), 0, h.grantDone)
}

// releaseIdle is the writer's release-to-idle transition: one rCAS
// clearing the writer bit, seeded with the state word the acquire
// installed. The optimistic-claim count is preserved across the release,
// so consecutive fast claims stay counted; the retry preserves any other
// bits it finds (a fresh group resets the counts on entry).
func (h *RWQueueHandle) releaseIdle(group ptr.Ptr, seed uint64) {
	s := seed
	for {
		prev := h.ctx.RCAS(group, s, s&^(uint64(1)<<rwqWrActiveBit))
		if prev == s {
			return
		}
		s = prev
	}
}

// releaseExcl releases an exclusive acquisition.
func (h *RWQueueHandle) releaseExcl(l ptr.Ptr, a api.AcqState) {
	h.ctx.Fence()
	group := l.Add(rwqGroup)

	if a.Desc == ptr.Null {
		// Optimistic claim: not in the queue, so release is just the idle
		// transition (plus the release-side zombie sweep every release
		// performs — a thread that stops acquiring must still recycle its
		// abandoned descriptors once their skip marks land).
		h.releaseIdle(group, a.Word)
		h.pool.Sweep()
		return
	}

	d := a.Desc
	next := h.ctx.Read(d.Add(rwqNext))
	if next == ptr.Null.Word() {
		tagged := d.Word() | rwqWriterTag
		if h.ctx.RCAS(l.Add(rwqTail), tagged, ptr.Null.Word()) == tagged {
			h.releaseIdle(group, a.Word) // queue empty: no successor to hand to
			h.pool.Put(d)
			return
		}
		iter := 0
		for next == ptr.Null.Word() {
			h.ctx.Pause(iter)
			iter++
			next = h.ctx.Read(d.Add(rwqNext))
		}
	}

	if h.timed {
		var ok bool
		next, ok = h.claimNext(l, next)
		if !ok {
			h.releaseIdle(group, a.Word) // queue drained while bypassing
			h.pool.Put(d)
			return
		}
	}
	succ := ptr.FromWord(next &^ rwqWriterTag)
	if next&rwqWriterTag != 0 {
		// Writer-to-writer handoff: wrActive simply stays set for the
		// successor — the entire handoff is one descriptor write. The
		// handoff is a queue-mediated grant, so it must reset the
		// optimistic-claim window: a claim count left in the group word
		// would ride the whole writer chain untouched (the successor's
		// release retry preserves bits it finds) and land in the idle
		// word, mis-counting the next episode's fast-claim budget. Grant
		// paths that already installed a bare writer bit leave the count
		// zero, so the common chain link still costs one descriptor write.
		for s := a.Word; rwqWClaims(s) != 0; {
			prev := h.ctx.RCAS(group, s, s&^(uint64(rwqGrantsMask)<<rwqWClaimShift))
			if prev == s {
				break
			}
			s = prev
		}
		h.write(succ.Add(rwqSpin), rwqSpinGranted)
		h.pool.Put(d)
		return
	}
	// Writer-to-reader handoff: open a fresh group containing the
	// successor (one rCAS), then wake it (one descriptor write). The
	// successor chain-admits any reader queued behind it.
	s := a.Word
	for {
		ns := uint64(1)<<rwqRdActiveShift | uint64(1)<<rwqGrantsShift
		prev := h.ctx.RCAS(group, s, ns)
		if prev == s {
			break
		}
		s = prev
	}
	h.write(succ.Add(rwqSpin), rwqSpinGranted)
	h.pool.Put(d)
}

// RWQueueProvider supplies the queued reader/writer lock.
type RWQueueProvider struct {
	Cfg RWConfig
	// Timed makes every handle speak the timed descriptor protocol
	// (required for token-API deadlines; a run-wide mode).
	Timed bool
}

// Name implements Provider.
func (*RWQueueProvider) Name() string { return "rw-queue" }

// Prepare implements Provider (lock state fits the lock line; descriptors
// are per-thread and allocated by NewHandle on each thread's own node).
func (*RWQueueProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (p *RWQueueProvider) NewHandle(ctx api.Ctx) api.Handle {
	h := NewRWQueueHandle(ctx, p.Cfg)
	h.timed = p.Timed
	return h
}

// AbortableTimed implements AbortableTimedProvider for exclusive-mode
// workloads: queued writers abandon by CAS and queue-head writers pass
// headship on timeout; the committed drain-wake registration only arises
// against an active reader group, which exclusive-only transaction runs
// never form.
func (*RWQueueProvider) AbortableTimed() {}
