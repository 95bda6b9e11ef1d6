// Package core implements the ALock, the paper's primary contribution: a
// fair, starvation-free mutual-exclusion primitive for RDMA systems that
// lets threads performing local accesses synchronize with threads
// performing remote accesses without loopback or RPCs.
//
// Structure (Section 5): an ALock is the composition of
//
//   - two budgeted MCS queue locks, one per cohort (local and remote), whose
//     tails double as the flag variables of Peterson's algorithm — a
//     non-NULL tail means that cohort is interested in or holds the lock;
//   - a modified Peterson's lock between the two cohort leaders, with a
//     victim word to arbitrate and a reacquire operation for fairness.
//
// The asymmetry discipline is the whole point: tail_l is only ever RMW'd
// with shared-memory CAS (by threads on the lock's home node), tail_r only
// with RDMA CAS (by threads elsewhere), and the victim word is only read
// and written, never RMW'd. Cross-class reads and writes of 8-byte words
// are atomic (Table 1), so the lock is correct even though local and remote
// RMW operations are not atomic with each other.
//
// Memory layout (Figure 3): one 64-byte cache line per lock —
//
//	byte 0x00: tail_r   (8B rdma_ptr)
//	byte 0x10: tail_l   (8B rdma_ptr)
//	byte 0x20: victim   (8B integer: 0 = LOCAL, 1 = REMOTE)
//	padded to 64 bytes
//
// and one 64-byte descriptor line per (thread, cohort) —
//
//	byte 0x00: budget   (8B signed integer; -1 = waiting)
//	byte 0x08: next     (8B rdma_ptr to successor's descriptor)
//	padded to 64 bytes.
//
// Handle implements api.Handle, the one per-algorithm contract: the
// acquisition's descriptor travels in api.AcqState.Desc from AcquireTimed to
// ReleaseAcq. The token layer (internal/locks) and the blocking shape
// (api.Blocking) are built on that and nothing else.
package core

import (
	"fmt"

	"alock/internal/api"
	"alock/internal/ptr"
)

// Word offsets inside the 64-byte ALock line (Figure 3; byte offsets 0x00,
// 0x10 and 0x20 are words 0, 2 and 4).
const (
	WordTailR  = 0 // remote cohort's MCS tail (doubles as Peterson flag)
	WordTailL  = 2 // local cohort's MCS tail (doubles as Peterson flag)
	WordVictim = 4 // Peterson victim: which cohort yields

	// LockWords is the allocation size of one ALock: a full cache line.
	LockWords = 8
)

// Word offsets inside a 64-byte descriptor line.
const (
	descBudget = 0
	descNext   = 1

	// DescWords is the allocation size of one descriptor: a full cache
	// line, padded to prevent false sharing (Section 6).
	DescWords = 8
)

// Budget-word sentinels. Valid budgets are non-negative, so the top of the
// unsigned range is free for protocol states. waiting is the paper's own
// sentinel (the descriptors in Figure 2 are initialized to -1); abandoned
// and skipped extend it for the timed protocol: a waiter whose deadline
// passes CASes its budget word from waiting to abandoned and leaves, and
// the granter that later bypasses the dead descriptor marks it skipped so
// the owning thread can recycle it. Within one cohort the waiter's abandon
// CAS and the granter's handoff CAS use the same access class (local cohort
// -> CAS, remote cohort -> rCAS), so Table 1's cross-class RMW hazard never
// arises on the budget word.
const (
	waiting   = ^uint64(0) // int64(-1): enqueued, lock not yet passed
	abandoned = ^uint64(1) // int64(-2): waiter timed out and left the queue
	skipped   = ^uint64(2) // int64(-3): granter bypassed this descriptor
)

// Config selects the cohort budgets (Section 6.1). The budget bounds how
// many times a cohort may pass the lock internally before its leader must
// reacquire through Peterson's algorithm, yielding to the other cohort.
type Config struct {
	// LocalBudget is kInitBudget for the local cohort.
	LocalBudget int64
	// RemoteBudget is kInitBudget for the remote cohort. The paper keeps
	// this higher because a remote reacquire costs RDMA operations while a
	// local reacquire costs only shared-memory operations.
	RemoteBudget int64
	// ForceRemote is an ablation switch (not part of the paper's design):
	// when set, every access is classified remote, collapsing ALock into a
	// symmetric single-cohort lock. Comparing it against the real ALock
	// isolates the value of the asymmetric cohort split; comparing it
	// against the plain RDMA MCS lock isolates the overhead of the
	// embedded Peterson layer.
	ForceRemote bool
	// Timed switches the intra-cohort handoff from the paper's single
	// descriptor write to a CAS-based protocol that tolerates waiters
	// abandoning their descriptors on deadline (AcquireTimed). It is a
	// run-wide mode: every handle of a run must agree, because granters
	// and waiters speak the same handoff protocol. Left false, the lock is
	// bit-identical to the paper's algorithm.
	Timed bool
}

// DefaultConfig returns the budgets the paper selects after the Figure 4
// study: local budget 5, remote budget 20.
func DefaultConfig() Config { return Config{LocalBudget: 5, RemoteBudget: 20} }

// Validate rejects non-positive budgets: a budget of 0 would force a
// reacquire on every pass, and negative budgets collide with the waiting
// sentinel.
func (c Config) Validate() error {
	if c.LocalBudget <= 0 || c.RemoteBudget <= 0 {
		return fmt.Errorf("core: budgets must be positive (got local=%d remote=%d)",
			c.LocalBudget, c.RemoteBudget)
	}
	return nil
}

func (c Config) budget(co api.Cohort) int64 {
	if co == api.CohortLocal {
		return c.LocalBudget
	}
	return c.RemoteBudget
}

// Stats counts per-handle events, useful for tests and for the evaluation's
// analysis of lock passing (Section 6.2 attributes ALock's high-contention
// throughput to the pass mechanism).
type Stats struct {
	Acquires   int64 // successful Lock operations
	Passes     int64 // acquisitions in which the MCS lock was passed to us
	Reacquires int64 // Peterson pReacquire executions
	LocalOps   int64 // acquisitions classified local
	RemoteOps  int64 // acquisitions classified remote
}

// Handle is one thread's capability to acquire ALocks. Descriptors are
// allocated per acquisition from a per-cohort pool (the paper's
// one-descriptor-per-thread layout is the pool's steady state when a thread
// holds one lock at a time), so a thread may hold several ALocks
// concurrently. Descriptors abandoned on timeout park as zombies until the
// granter that bypassed them marks them skipped, at which point they are
// recycled.
//
// A Handle is not safe for concurrent use — it belongs to exactly one
// thread, like the paper's per-thread metadata.
type Handle struct {
	ctx   api.Ctx
	cfg   Config
	seed  [2]ptr.Ptr      // first descriptor of each cohort (for tests)
	pool  [2]api.DescPool // indexed by api.Cohort
	stats Stats
}

var _ api.Handle = (*Handle)(nil)

// NewHandle allocates the thread's initial per-cohort descriptors on ctx's
// node and returns a handle using the given budget configuration. Further
// descriptors are allocated only if the thread actually overlaps holds.
func NewHandle(ctx api.Ctx, cfg Config) *Handle {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Handle{ctx: ctx, cfg: cfg}
	for _, co := range []api.Cohort{api.CohortLocal, api.CohortRemote} {
		d := ctx.Alloc(DescWords, DescWords)
		ctx.Write(d.Add(descBudget), waiting)
		ctx.Write(d.Add(descNext), ptr.Null.Word())
		h.seed[co] = d
		h.pool[co] = api.DescPool{Ctx: ctx, Words: DescWords, Spin: descBudget, Skip: skipped}
		h.pool[co].Push(d)
	}
	return h
}

// Stats returns a copy of the handle's counters.
func (h *Handle) Stats() Stats { return h.stats }

// Descriptor exposes the cohort's seed descriptor pointer (for tests).
func (h *Handle) Descriptor(co api.Cohort) ptr.Ptr { return h.seed[co] }

// putDesc returns a released descriptor and sweeps BOTH cohorts' zombies,
// local first: a release is the last pool interaction a winding-down thread
// performs, and its final releases may all be on the other cohort than the
// zombie (a remote-lock timeout followed by local-only work), so sweeping
// only the released cohort would still leak the abandoned descriptor.
func (h *Handle) putDesc(co api.Cohort, d ptr.Ptr) {
	h.pool[co].Push(d)
	h.pool[api.CohortLocal].Sweep()
	h.pool[api.CohortRemote].Sweep()
}

// Zombies reports how many abandoned descriptors are still parked awaiting
// their skip mark (drain-recycle assertions in locktest).
func (h *Handle) Zombies() int { return h.pool[0].Zombies() + h.pool[1].Zombies() }

// TailPtr returns the pointer to the given cohort's MCS tail word within
// the lock line at l.
func TailPtr(l ptr.Ptr, co api.Cohort) ptr.Ptr {
	if co == api.CohortLocal {
		return l.Add(WordTailL)
	}
	return l.Add(WordTailR)
}

// VictimPtr returns the pointer to the Peterson victim word of the lock at l.
func VictimPtr(l ptr.Ptr) ptr.Ptr { return l.Add(WordVictim) }

// view binds the six Ctx operations to one access class, so the cohort
// algorithms are written once. The local cohort's view uses shared-memory
// operations; the remote cohort's view uses RDMA operations — including for
// peer descriptors, exactly as Algorithm 3 prescribes (rWrite
// unconditionally), even when a peer happens to be co-located.
type view struct {
	ctx    api.Ctx
	remote bool
}

func (v view) read(p ptr.Ptr) uint64 {
	if v.remote {
		return v.ctx.RRead(p)
	}
	return v.ctx.Read(p)
}

func (v view) write(p ptr.Ptr, x uint64) {
	if v.remote {
		v.ctx.RWrite(p, x)
		return
	}
	v.ctx.Write(p, x)
}

func (v view) cas(p ptr.Ptr, old, new uint64) uint64 {
	if v.remote {
		return v.ctx.RCAS(p, old, new)
	}
	return v.ctx.CAS(p, old, new)
}

// AcquireTimed acquires the ALock at l (Algorithm 2), giving up once engine
// time reaches deadlineNS (0 = block until granted; deadlines require
// Config.Timed). The access class is determined by the node ID embedded in
// the pointer: threads on the lock's home node take the local path with
// shared-memory operations only (no loopback), everyone else takes the
// remote path with RDMA verbs. ALock has no shared mode: Shared degrades to
// Exclusive. On success the returned state carries the acquisition's
// descriptor; on timeout nothing is held.
//
// The timeout window covers the queue wait: a waiter whose deadline passes
// while spinning on its descriptor CASes the budget word from waiting to
// abandoned and leaves (the granter patches the queue around the dead
// descriptor). A thread that has become cohort leader is committed — the
// Peterson wait is bounded by the other cohort's budget, so it finishes
// the acquisition even past the deadline and reports it as acquired.
func (h *Handle) AcquireTimed(l ptr.Ptr, _ api.Mode, deadlineNS int64) (api.AcqState, bool) {
	co := h.classify(l)
	if !h.cfg.Timed {
		deadlineNS = 0 // granters don't speak the abandon protocol
	}
	d, passed, ok := h.qLock(l, co, deadlineNS)
	if !ok {
		return api.AcqState{}, false
	}
	// Cohort classification is counted per successful acquisition, with
	// Acquires — a timed-out attempt would otherwise break the
	// LocalOps+RemoteOps == Acquires invariant the reports divide by.
	if co == api.CohortLocal {
		h.stats.LocalOps++
	} else {
		h.stats.RemoteOps++
	}
	if !passed {
		// We swapped onto an empty cohort queue: we are the cohort leader
		// and must win Peterson's lock before entering the critical
		// section (Algorithm 2 line 3-4).
		h.pReacquire(l, co)
	}
	// Fence after locking (§5.2).
	h.ctx.Fence()
	h.stats.Acquires++
	return api.AcqState{Desc: d}, true
}

// ReleaseAcq releases the ALock at l (Algorithm 2 line 5-6).
func (h *Handle) ReleaseAcq(l ptr.Ptr, _ api.Mode, st api.AcqState) {
	co := h.classify(l)
	// Fence before unlocking (§5.2).
	h.ctx.Fence()
	h.qUnlock(l, co, st.Desc)
	h.putDesc(co, st.Desc)
}

// classify determines the cohort for an access to l, honoring the
// ForceRemote ablation.
func (h *Handle) classify(l ptr.Ptr) api.Cohort {
	if h.cfg.ForceRemote {
		return api.CohortRemote
	}
	return api.Classify(h.ctx.NodeID(), l)
}

// qLock is the modified (budgeted) MCS queue lock of Algorithm 3. On
// success it returns the acquisition's descriptor and whether the lock was
// passed to us by a predecessor (true — Peterson's lock is already held by
// our cohort) or we became cohort leader on an empty queue (false). ok is
// false iff the deadline expired while waiting, in which case the
// descriptor has been abandoned in place and nothing is held.
func (h *Handle) qLock(l ptr.Ptr, co api.Cohort, deadlineNS int64) (d ptr.Ptr, passed, ok bool) {
	v := view{ctx: h.ctx, remote: co == api.CohortRemote}
	d = h.pool[co].Get()
	tail := TailPtr(l, co)

	if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
		h.putDesc(co, d) // gave up before touching shared state
		return ptr.Null, false, false
	}

	// Reset our descriptor (Algorithm 3 line 2; the descriptor's own words
	// live on our node, so these are always shared-memory writes).
	h.ctx.Write(d.Add(descNext), ptr.Null.Word())
	h.ctx.Write(d.Add(descBudget), waiting)

	// Swap our descriptor onto the cohort tail. RDMA offers CAS (not
	// unconditional swap), so the swap is a CAS-retry loop seeded with the
	// value learned from each failed attempt (Section 5, Lock Procedure).
	expected := ptr.Null.Word()
	for {
		prev := v.cas(tail, expected, d.Word())
		if prev == expected {
			break
		}
		expected = prev
	}

	if expected == ptr.Null.Word() {
		// Queue was empty: cohort lock acquired outright, not passed
		// (Algorithm 3 lines 4-6).
		h.ctx.Write(d.Add(descBudget), uint64(h.cfg.budget(co)))
		return d, false, true
	}

	// We have a predecessor: link ourselves behind it (Algorithm 3 line
	// 8), then spin on our own descriptor — a shared-memory spin, the MCS
	// property that keeps remote threads from remote spinning.
	prev := ptr.FromWord(expected)
	v.write(prev.Add(descNext), d.Word())

	if h.ctx.SpinWhile(d.Add(descBudget), waiting, deadlineNS) == waiting {
		// Deadline passed: try to abandon the descriptor. The CAS and the
		// granter's handoff CAS share the cohort's access class, so exactly
		// one of them wins.
		if v.cas(d.Add(descBudget), waiting, abandoned) == waiting {
			h.pool[co].Park(d)
			return ptr.Null, false, false
		}
		// The grant raced the timeout and won: we hold the lock.
	}
	h.stats.Passes++

	if h.ctx.Read(d.Add(descBudget)) == 0 {
		// Our cohort's budget is exhausted: yield to the other cohort via
		// Peterson's reacquire, then reset the budget (Algorithm 3 lines
		// 10-12).
		h.pReacquire(l, co)
		h.ctx.Write(d.Add(descBudget), uint64(h.cfg.budget(co)))
	}
	return d, true, true
}

// qUnlock releases the cohort MCS lock (Algorithm 3 lines 14-18). If no
// successor is queued, CASing the tail back to NULL also lowers the
// cohort's Peterson flag, releasing the ALock entirely. Otherwise the lock
// is passed: the successor's budget word receives ours minus one — a
// single descriptor write in the paper's protocol, or a CAS against the
// waiting sentinel under Config.Timed, so a successor that abandoned its
// descriptor on deadline is detected and patched around instead of woken.
func (h *Handle) qUnlock(l ptr.Ptr, co api.Cohort, d ptr.Ptr) {
	v := view{ctx: h.ctx, remote: co == api.CohortRemote}
	tail := TailPtr(l, co)

	if v.cas(tail, d.Word(), ptr.Null.Word()) == d.Word() {
		return // no successor; ALock released
	}

	// A successor swapped in behind us; wait for it to link itself
	// (our own next word: shared-memory spin).
	h.ctx.SpinWhile(d.Add(descNext), ptr.Null.Word(), 0)
	succ := ptr.FromWord(h.ctx.Read(d.Add(descNext)))
	myBudget := int64(h.ctx.Read(d.Add(descBudget)))
	pass := uint64(myBudget - 1)

	if !h.cfg.Timed {
		// Pass the lock (Algorithm 3 line 18): the successor's spin ends
		// when its budget turns non-negative.
		v.write(succ.Add(descBudget), pass)
		return
	}
	for {
		prev := v.cas(succ.Add(descBudget), waiting, pass)
		if prev == waiting {
			return // passed
		}
		// prev == abandoned: the successor timed out. Patch the queue
		// around its descriptor: either the queue ends there (tail CAS
		// back to NULL releases the ALock) or we move on to its own
		// successor, marking the dead descriptor skipped once its next
		// word is no longer needed.
		next := v.read(succ.Add(descNext))
		if next == ptr.Null.Word() {
			if v.cas(tail, succ.Word(), ptr.Null.Word()) == succ.Word() {
				v.write(succ.Add(descBudget), skipped)
				return // queue drained; ALock released
			}
			iter := 0
			for next == ptr.Null.Word() {
				h.ctx.Pause(iter)
				iter++
				next = v.read(succ.Add(descNext))
			}
		}
		v.write(succ.Add(descBudget), skipped)
		succ = ptr.FromWord(next)
	}
}

// pReacquire is the modified Peterson's lock (Algorithm 4): yield to the
// other cohort by naming ourselves the victim, then wait until either the
// other cohort's MCS queue is unlocked (its tail — its Peterson flag — is
// NULL) or we are no longer the victim.
//
// Note on fidelity: Algorithm 4's prose writes the wait condition with an
// "or", but the paper's own TLA+ specification (Appendix A, labels g2/g3)
// and its worked example (Figure 2, frame 4) both wait while
// (other cohort locked AND victim == self), which is classic Peterson; we
// implement the TLA+ semantics.
func (h *Handle) pReacquire(l ptr.Ptr, co api.Cohort) {
	v := view{ctx: h.ctx, remote: co == api.CohortRemote}
	h.stats.Reacquires++

	otherTail := TailPtr(l, co.Other())
	victim := VictimPtr(l)

	v.write(victim, uint64(co))
	iter := 0
	for {
		if v.read(otherTail) == ptr.Null.Word() {
			return // other cohort not interested (Appendix A, g2)
		}
		if v.read(victim) != uint64(co) {
			return // other cohort yielded to us (Appendix A, g3)
		}
		// For the remote cohort this is remote spinning — the asymmetric
		// reacquire cost that motivates the larger remote budget (§6.1).
		h.ctx.Pause(iter)
		iter++
	}
}

// IsLocked reports whether the given cohort's queue is non-empty
// (Algorithm 3, qIsLocked), reading with the classifying thread's own
// access class.
func IsLocked(ctx api.Ctx, l ptr.Ptr, co api.Cohort) bool {
	v := view{ctx: ctx, remote: api.Classify(ctx.NodeID(), l) == api.CohortRemote}
	return v.read(TailPtr(l, co)) != ptr.Null.Word()
}
