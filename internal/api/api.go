// Package api defines the execution-context interface that every lock
// algorithm in this repository is written against, plus the cohort
// classification rules of the paper's system model (Section 4).
//
// The paper distinguishes two classes of access to RDMA-accessible memory:
//
//   - Local access (Definition 4.1): shared-memory operations — Read,
//     Write, CAS — used by a thread when the memory resides on its own node.
//   - Remote access (Definition 4.2): RDMA one-sided operations — rRead,
//     rWrite, rCAS — used when the memory resides on another node (or when
//     a loopback-based algorithm insists on RDMA even for its own node).
//
// Atomicity between the classes is asymmetric (Table 1): reads and writes
// of either class are atomic with everything, but an rCAS is NOT atomic
// with a local Write or local RMW — it appears locally as a read followed
// by a write. The engines in internal/sim and internal/rt both honor this
// contract (tearing is configurable), which is what makes it possible to
// test that ALock's discipline — never mixing RMW classes on one word — is
// load-bearing.
//
// The same lock code runs unmodified on three implementations of Ctx: the
// deterministic discrete-event engine (internal/sim, used for every
// figure), the real-goroutine engine (internal/rt, used for race-detector
// correctness tests and the examples), and the model checker
// (internal/check), whose synchronous Ctx makes every memory operation a
// transition it picks and so explores the shipping ALock and MCS code
// under every interleaving.
package api

import (
	"math/rand"
	"time"

	"alock/internal/ptr"
)

// Cohort identifies which of the paper's two cohorts a lock access belongs
// to. The values double as indices into Peterson's cohort[2] array
// (Algorithm 4) and as the values stored in a lock's victim word.
type Cohort int

const (
	// CohortLocal is the cohort of threads accessing a lock stored on
	// their own node using shared-memory operations.
	CohortLocal Cohort = 0
	// CohortRemote is the cohort of threads accessing a lock stored on a
	// different node using RDMA operations.
	CohortRemote Cohort = 1
)

// Other returns the opposing cohort (Algorithm 4: other <- 1 - id).
func (c Cohort) Other() Cohort { return 1 - c }

// String names the cohort as in the paper's example (LOCAL / REMOTE).
func (c Cohort) String() string {
	if c == CohortLocal {
		return "LOCAL"
	}
	return "REMOTE"
}

// Classify determines the cohort of an access by a thread on threadNode to
// the object at p, by inspecting the node ID embedded in the first 4 bits
// of the RDMA pointer (Section 5, "Lock Procedure").
func Classify(threadNode int, p ptr.Ptr) Cohort {
	if p.NodeID() == threadNode {
		return CohortLocal
	}
	return CohortRemote
}

// Ctx is a simulated (or real) thread's handle onto the cluster. All lock
// algorithms, workloads and examples are written against this interface.
//
// The six memory operations mirror the paper's Section 4 exactly. Callers
// choose the class; the engine charges the corresponding cost and enforces
// the corresponding atomicity. Using RRead/RWrite/RCAS against memory on
// the caller's own node is legal and models the loopback mechanism (it
// passes through the local RNIC, with all the congestion that implies) —
// that is precisely what the paper's spinlock and MCS competitors do.
//
// Completion. Write, Fence and Pause return no value and may return before
// they complete (internal/sim posts them and lets the caller run on). They
// still complete in program order, at the engine instants they always did,
// and before any later call on the same Ctx returns a value or the time
// (Read, CAS, SpinWhile, SpinUntil, Now, Stopped, and the remote class), issues
// a verb, allocates or frees, or starts Work or WorkLoop; a thread's function
// returning waits for them too. To the simulated cluster nothing changed: the definition is
// "the same program with Now() called after every operation". What callers
// must not do is order Go state shared between threads (a counter, a flag, an
// engine-level call such as a stop request) by a bare Write, Fence or Pause
// returning — put one of the completing calls, or Now(), in front of it.
// Completing every operation before it returns, as internal/rt does, is a
// legal implementation.
type Ctx interface {
	// NodeID returns the node this thread executes on.
	NodeID() int
	// ThreadID returns a cluster-wide unique thread ID.
	ThreadID() int

	// Read performs a local (shared-memory) 8-byte load.
	Read(p ptr.Ptr) uint64
	// Write performs a local (shared-memory) 8-byte store. It may return
	// before the store lands (see Completion above).
	Write(p ptr.Ptr, v uint64)
	// CAS performs a local compare-and-swap and returns the previous value
	// (the swap succeeded iff the return value equals old).
	CAS(p ptr.Ptr, old, new uint64) uint64

	// RRead performs a one-sided RDMA read.
	RRead(p ptr.Ptr) uint64
	// RWrite performs a one-sided RDMA write.
	RWrite(p ptr.Ptr, v uint64)
	// RCAS performs a one-sided RDMA compare-and-swap and returns the
	// previous value. It is atomic with other remote operations but NOT
	// with local Write/CAS (Table 1) when the engine models tearing.
	RCAS(p ptr.Ptr, old, new uint64) uint64

	// Fence issues the atomic thread fence the algorithm requires after
	// locking and before unlocking (§5.2). It may return before its cost has
	// elapsed (see Completion above).
	Fence()

	// Pause backs off inside a spin loop; iter is the number of failed
	// polls so far. Engines translate it into bounded exponential delay,
	// which may still be elapsing when Pause returns (see Completion above).
	Pause(iter int)

	// SpinWhile polls the word at p with Read and the Pause back-off while
	// it holds v. It is defined as the loop
	//
	//	for iter := 0; ; iter++ {
	//		if got := Read(p); got != v { return got }
	//		if deadlineNS > 0 && Now() >= deadlineNS { return v }
	//		Pause(iter)
	//	}
	//
	// and costs exactly what that loop costs — in virtual time and in events
	// counted; engines may run it without returning to the caller between
	// polls, and the simulator parks the caller on the word between them, so
	// that a wait costs it host work per store to the word, not per poll. A
	// parked wait spends none of the simulator's event budget, which counts
	// the events it dispatches; a wait that nothing is left to end is
	// reported as waiting forever, not as a livelock.
	// p must be a word on the caller's own node — the poll is a local
	// Read; remote and loopback (RRead) spins keep their loops. The result
	// is the first value read that differs from v. A result of v means no
	// poll saw the word change and the last one found deadlineNS (> 0)
	// already passed: the word may change at any moment after, so a caller
	// that gives up must retract its wait with a CAS against v.
	// deadlineNS <= 0 spins without bound.
	SpinWhile(p ptr.Ptr, v uint64, deadlineNS int64) uint64

	// SpinUntil is the poll loop for waits SpinWhile's compare cannot state: a
	// word with several resolved values, a masked field, a deadline that
	// applies in some states only. It is defined as the loop
	//
	//	for {
	//		v := Read(p)
	//		if done(v, deadlineNS > 0 && Now() >= deadlineNS) { return v, iter }
	//		Pause(iter)
	//		iter++
	//	}
	//
	// and costs exactly what that loop costs, in virtual time and in events
	// counted. done is a function of the value read, of whether that read
	// came at or past deadlineNS (expired; never with deadlineNS <= 0), and
	// of Go state its thread owns that the wait does not change (a handle's
	// mode or budget), so whether a poll fails is decided by its value and
	// one time threshold: engines may run the loop without returning to the
	// caller between polls, and the simulator parks the caller on the word
	// after a failed poll, as for SpinWhile, until a store leaves the word
	// different from what that poll read or the deadline's poll comes round.
	// done is asked only on the polls an engine runs — a subsequence of the
	// loop's calls, with the same answers, ending at the same call — and may
	// be asked off the caller's goroutine. p must be a word on the caller's
	// own node, as for SpinWhile. iter is the back-off to resume from and
	// comes back as the loop left it: a caller that re-enters the wait (after
	// a retraction CAS that lost, say) keeps its back-off, and a pause-first
	// loop — `Pause(i); i++; v = Read(p)` — is Pause(i) followed by
	// SpinUntil(p, i+1, deadlineNS, done). done answers to WorkLoop's rules
	// for f: it is the caller's own code, it must not call any method of this
	// Ctx or of the engine, touch memory words, or allocate — bind it once (a
	// method value made with the handle), never per call. A panic in done is
	// the caller's panic.
	SpinUntil(p ptr.Ptr, iter int, deadlineNS int64, done func(v uint64, expired bool) bool) (v uint64, iterOut int)

	// Work burns d of engine time, modeling a critical-section body or
	// think time between operations. It returns when the time is burnt:
	// callers bracket it with Go-side bookkeeping (readers++; Work; readers--)
	// that other threads check.
	Work(d time.Duration)

	// WorkLoop waits on Go state by looking at it every so often. It is
	// defined as the loop
	//
	//	for {
	//		d, again := f(Now(), Stopped())
	//		if !again { return }
	//		Work(d)
	//	}
	//
	// and costs exactly what that loop costs (a d <= 0 burns nothing and f is
	// called again at once); engines may run it without returning to the
	// caller between turns, so f may be called off the caller's goroutine.
	// f is the caller's own code all the same, bound to the caller's node: it
	// may read and write only Go state that node's threads own (an idle
	// worker's queue, an arrival generator's next gap), must not call any
	// method of this Ctx or of the engine — save the one an engine offers to
	// announce a change to Go state that other loops wait on (internal/sim's
	// Signal.Raise) — and must not allocate. Every call of f, and WorkLoop's
	// return, is a completing call in the sense above: Go state f wrote is
	// ordered before whatever the caller does next, and before later calls of
	// f on the same node. A panic in f is the caller's panic. An engine may
	// also skip turns whose answer cannot have changed — a loop registered
	// with internal/sim as a waiter on such state, whose f looks at the state
	// at a fixed d and changes nothing, is called only at the turns a change
	// or the stop can end — still counting every turn's Work as the loop
	// would. Loops that wait on a memory word use SpinWhile or SpinUntil.
	WorkLoop(f func(now int64, stopped bool) (d time.Duration, again bool))

	// Now returns nanoseconds of engine time since the run began
	// (virtual time under internal/sim, wall time under internal/rt).
	Now() int64

	// Stopped reports whether the engine has passed its measurement
	// horizon; workload loops exit cleanly (finishing their current
	// lock/unlock first) when it returns true.
	Stopped() bool

	// Alloc allocates words 8-byte words, aligned to align words, in this
	// thread's own node's RDMA-accessible memory.
	Alloc(words, align int) ptr.Ptr
	// Free releases a pointer obtained from Alloc.
	Free(p ptr.Ptr)

	// Rand returns this thread's deterministic random stream.
	Rand() *rand.Rand
}

// Locker is the blocking lock shape of the paper's evaluation: Lock and
// Unlock bracket a critical section on the lock object at l, and an
// operation is exactly one Lock followed by one Unlock. Blocking is its
// only implementation.
type Locker interface {
	Lock(l ptr.Ptr)
	Unlock(l ptr.Ptr)
}

// RWLocker extends Locker with a shared (read) acquire mode: any number of
// RLock holders may overlap, but a Lock (write) holder excludes everyone.
// This is the operation axis the reader/writer workloads sweep; the paper's
// evaluation itself only exercises the exclusive mode.
type RWLocker interface {
	Locker
	// RLock acquires the lock at l in shared mode.
	RLock(l ptr.Ptr)
	// RUnlock releases a shared acquisition of the lock at l.
	RUnlock(l ptr.Ptr)
}

// --- Acquisition API ---
//
// Lock and Unlock model the paper's evaluation exactly: one blocking
// acquire, one implicit outstanding acquisition per handle. Everything the
// paper does not evaluate — timeouts, crashed holders, overlapping holds of
// several locks — needs acquisitions to be first-class values. Handle is
// the one contract every algorithm implements: a timed, mode-aware acquire
// returning the acquisition's state, and the matching release. TokenLocker
// layers fencing on top: every attempt returns an explicit Outcome, every
// grant a Guard carrying a token minted at grant time, and Release
// validates the token so a stale holder's late release is rejected instead
// of corrupting the lock.

// Mode selects the acquisition class of one lock operation.
type Mode uint8

const (
	// Exclusive is a write-side acquisition: the holder excludes everyone.
	Exclusive Mode = iota
	// Shared is a read-side acquisition: holders may overlap. Algorithms
	// without native shared mode degrade it to Exclusive.
	Shared
)

// String names the mode for stats and test output.
func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// AcqState is one acquisition's algorithm-private bookkeeping, produced by
// Handle.AcquireTimed and handed back to ReleaseAcq. It is a plain value —
// no allocation per grant — and opaque to callers; each algorithm uses the
// fields it needs (the spinlock none of them).
type AcqState struct {
	// Desc is the acquisition's queue descriptor (Null when none was taken).
	Desc ptr.Ptr
	// Word is one state word, typically the lock word the acquire installed
	// or last observed — the optimistic seed of the release's first CAS.
	Word uint64
	// Flags are algorithm-defined bits.
	Flags uint8
}

// Handle is the per-thread contract of every lock algorithm: a mode-aware
// acquire bounded by an engine-time deadline (0 = block until granted), and
// the matching release. Algorithms without native shared mode treat Shared
// as Exclusive (correct, but readers serialize); algorithms without a
// native timed path block through the deadline and still acquire. A Handle
// belongs to one thread and may hold several locks at once.
type Handle interface {
	// AcquireTimed reports false iff the deadline passed first, in which
	// case nothing is held.
	AcquireTimed(l ptr.Ptr, mode Mode, deadlineNS int64) (AcqState, bool)
	// ReleaseAcq ends the acquisition of l that returned st.
	ReleaseAcq(l ptr.Ptr, mode Mode, st AcqState)
}

// Outcome is the result of one acquisition attempt.
type Outcome uint8

const (
	// Acquired: the lock was granted; the returned Guard is live.
	Acquired Outcome = iota
	// TimedOut: the deadline passed before the grant; nothing is held and
	// the returned Guard is dead (its release is rejected as Fenced, and
	// the run's fencing authority counts it as a stray release).
	TimedOut
	// AcquiredLate: the lock was granted — the Guard is live, exactly as
	// for Acquired — but only after the requested deadline had already
	// passed. This is the best-effort-deadline detail: algorithms without
	// a native timed path (filter, bakery) block straight through any
	// deadline, and committed queued waiters (ALock cohort leaders,
	// registered drain-wake writers) overshoot by design because grants
	// always win timeout races. Callers that ignore the distinction may
	// treat it as Acquired; callers that promised the deadline to someone
	// else must not pretend it was honored.
	AcquiredLate
)

// Granted reports whether the outcome carries a live Guard (Acquired or
// AcquiredLate).
func (o Outcome) Granted() bool { return o == Acquired || o == AcquiredLate }

// ReleaseOutcome is the result of releasing a Guard.
type ReleaseOutcome uint8

const (
	// Released: the guard was live; the lock has been released.
	Released ReleaseOutcome = iota
	// Fenced: the guard's fencing token was no longer live — a double
	// release, a timed-out acquire's guard, or the late release of an
	// abandoned hold that recovery already reclaimed. The lock state is
	// untouched. Only the last is expected: the run's fencing authority
	// counts the others as stray releases and fails the run at its end.
	Fenced
)

// AcquireOpts parameterizes one acquisition attempt.
type AcquireOpts struct {
	// DeadlineNS is the engine time (api.Ctx.Now scale) after which the
	// attempt gives up and reports TimedOut. Zero means block until
	// granted. Algorithms without a native timed path may overshoot the
	// deadline and still return Acquired — a grant that races the timeout
	// and wins is always reported as a grant, never abandoned.
	DeadlineNS int64
}

// Guard is one live acquisition: the capability to release the lock it was
// granted on. Guards are values — a thread may hold guards on several locks
// at once (the algorithms allocate a descriptor per acquisition, not per
// thread).
type Guard struct {
	// Lock is the lock the guard was granted on.
	Lock ptr.Ptr
	// Mode is the acquisition class that was granted.
	Mode Mode
	// Token is the fencing token minted at grant time. Tokens increase
	// monotonically across the cluster, so of any two grants the later one
	// carries the larger token — the classic fencing-token contract.
	Token uint64
	// State is the algorithm's per-acquisition bookkeeping; opaque to
	// callers.
	State AcqState
}

// TokenLocker is the acquisition-token lock API. One TokenLocker belongs to
// one thread, like Locker.
type TokenLocker interface {
	// Acquire attempts to take the lock at l in the given mode. On
	// Acquired the returned Guard is live; on TimedOut nothing is held.
	Acquire(l ptr.Ptr, mode Mode, opt AcquireOpts) (Guard, Outcome)
	// Release ends the acquisition g. It validates g's fencing token
	// first: a token that is no longer live (timed out, already released,
	// or reclaimed by Abandon) returns Fenced and leaves the lock alone.
	Release(g Guard) ReleaseOutcome
	// Abandon models a crashed holder being reclaimed by recovery: the
	// underlying lock is physically released so other threads make
	// progress again, but g's token is revoked — the crashed holder's own
	// later Release(g) reports Fenced. Abandon on a dead guard is a no-op.
	Abandon(g Guard)
}

// Blocking is the blocking Lock/Unlock shape over any algorithm's Handle —
// what the examples, the real-goroutine tests and the public alock.NewHandle
// hand out. It parks each acquisition's state on a held list keyed by lock
// and mode, so overlapping holds of distinct locks are fine. There is no
// fencing here: a blocking caller releases exactly what it acquired.
type Blocking struct {
	h    Handle
	held []heldAcq
}

type heldAcq struct {
	lock ptr.Ptr
	mode Mode
	st   AcqState
}

var _ RWLocker = (*Blocking)(nil)

// NewBlocking wraps an algorithm handle in the blocking shape.
func NewBlocking(h Handle) *Blocking { return &Blocking{h: h} }

func (b *Blocking) acquire(l ptr.Ptr, mode Mode) {
	st, _ := b.h.AcquireTimed(l, mode, 0) // no deadline: always acquires
	b.held = append(b.held, heldAcq{lock: l, mode: mode, st: st})
}

func (b *Blocking) release(l ptr.Ptr, mode Mode) {
	for i := len(b.held) - 1; i >= 0; i-- {
		if a := b.held[i]; a.lock == l && a.mode == mode {
			b.held = append(b.held[:i], b.held[i+1:]...)
			b.h.ReleaseAcq(l, mode, a.st)
			return
		}
	}
	panic("api: Blocking release without matching acquire")
}

// Lock implements RWLocker.
func (b *Blocking) Lock(l ptr.Ptr) { b.acquire(l, Exclusive) }

// Unlock implements RWLocker.
func (b *Blocking) Unlock(l ptr.Ptr) { b.release(l, Exclusive) }

// RLock implements RWLocker.
func (b *Blocking) RLock(l ptr.Ptr) { b.acquire(l, Shared) }

// RUnlock implements RWLocker.
func (b *Blocking) RUnlock(l ptr.Ptr) { b.release(l, Shared) }
