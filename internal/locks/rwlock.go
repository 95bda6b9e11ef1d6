// rwlock.go implements the repository's two reader/writer locks — the
// shared/exclusive operation axis the RW workloads sweep (extension beyond
// the paper, whose evaluation is exclusive-only).
//
// Both locks keep their entire state in one 8-byte word of the lock's
// cache line and mutate it exclusively with RDMA rCAS, from every node:
// remote RMWs serialize at the responder NIC, so the state word never
// mixes RMW classes (the Table 1 discipline that makes ALock subtle does
// not arise). The ALock-inspired asymmetry survives in the polling path:
// cross-class 8-byte reads are atomic with everything, so threads on the
// lock's home node spin with shared-memory reads — the expensive part of
// waiting costs them nothing — while remote threads poll through verbs.
//
//   - rw-budget adapts ALock's budget scheme to reader/writer cohorts:
//     while the opposite class is waiting, at most ReadBudget consecutive
//     readers (resp. WriteBudget writers) are admitted before the lock
//     flips phase and yields, the same bounded-passing idea that makes
//     ALock fair across its local/remote cohorts (Section 6.1).
//   - rw-wpref is the classic writer-preference baseline: any registered
//     writer blocks new readers outright, so a steady writer stream can
//     starve readers — the behavior the budget variant is measured against.
package locks

import (
	"fmt"

	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// RWLockWords is the allocation size of a reader/writer lock: one cache
// line (only word 0 is used; padding prevents false sharing).
const RWLockWords = 8

// State-word layout. All fields are mutated together under one rCAS.
const (
	rwRdActiveShift = 0  // bits 0..15: readers inside the lock
	rwWrActiveBit   = 16 // bit 16: a writer inside the lock
	rwWrWaitShift   = 17 // bits 17..32: registered waiting writers
	rwRdWaitShift   = 33 // bits 33..48: registered waiting readers
	rwGrantsShift   = 49 // bits 49..56: same-class grants this phase
	rwPhaseBit      = 57 // bit 57: 0 = reader phase, 1 = writer phase

	rwFieldMask  = 0xffff
	rwGrantsMask = 0xff
)

func rwRdActive(s uint64) uint64 { return (s >> rwRdActiveShift) & rwFieldMask }
func rwWrActive(s uint64) bool   { return s&(1<<rwWrActiveBit) != 0 }
func rwWrWait(s uint64) uint64   { return (s >> rwWrWaitShift) & rwFieldMask }
func rwRdWait(s uint64) uint64   { return (s >> rwRdWaitShift) & rwFieldMask }
func rwGrants(s uint64) uint64   { return (s >> rwGrantsShift) & rwGrantsMask }
func rwWritePhase(s uint64) bool { return s&(1<<rwPhaseBit) != 0 }

// RWConfig selects the per-phase budgets of the rw-budget lock.
type RWConfig struct {
	// ReadBudget bounds consecutive reader admissions while a writer waits.
	ReadBudget int64
	// WriteBudget bounds consecutive writer admissions while a reader
	// waits. Kept lower than ReadBudget because a write phase serializes
	// the whole lock while a read phase still admits concurrency.
	WriteBudget int64
}

// DefaultRWConfig mirrors the spirit of ALock's asymmetric 5/20 budgets:
// generous to the concurrency-preserving class, tight on the serializing
// one.
func DefaultRWConfig() RWConfig { return RWConfig{ReadBudget: 16, WriteBudget: 4} }

// Validate rejects budgets the grants field cannot count.
func (c RWConfig) Validate() error {
	if c.ReadBudget <= 0 || c.WriteBudget <= 0 {
		return fmt.Errorf("locks: RW budgets must be positive (got read=%d write=%d)",
			c.ReadBudget, c.WriteBudget)
	}
	if c.ReadBudget > rwGrantsMask || c.WriteBudget > rwGrantsMask {
		return fmt.Errorf("locks: RW budgets must fit in %d (got read=%d write=%d)",
			rwGrantsMask, c.ReadBudget, c.WriteBudget)
	}
	return nil
}

// RWHandle is one thread's handle onto either reader/writer lock; budgeted
// selects the rw-budget policy, otherwise writer preference.
type RWHandle struct {
	ctx      api.Ctx
	budgeted bool
	cfg      RWConfig
	// deadline is the deadline of the acquisition in progress, where the two
	// waits' done functions find it (0 = none). They are method values bound
	// once by newRWHandle: api.Ctx.SpinUntil may call them off the thread, and
	// wants no closure made per wait.
	deadline             int64
	sharedDone, exclDone func(s uint64, now int64) bool
}

var _ api.Handle = (*RWHandle)(nil)

// NewRWBudgetHandle returns a per-thread handle of the budgeted
// phase-fair lock.
func NewRWBudgetHandle(ctx api.Ctx, cfg RWConfig) *RWHandle {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newRWHandle(ctx, true, cfg)
}

// NewRWPrefHandle returns a per-thread handle of the writer-preference
// baseline.
func NewRWPrefHandle(ctx api.Ctx) *RWHandle {
	return newRWHandle(ctx, false, RWConfig{})
}

func newRWHandle(ctx api.Ctx, budgeted bool, cfg RWConfig) *RWHandle {
	h := &RWHandle{ctx: ctx, budgeted: budgeted, cfg: cfg}
	h.sharedDone, h.exclDone = h.readerOpen, h.writerOpen
	return h
}

// poll reads the state word with the cheapest atomic class available:
// shared-memory on the lock's home node, a verb elsewhere (Table 1 makes
// the cross-class read safe against concurrent rCAS mutators).
func (h *RWHandle) poll(l ptr.Ptr) uint64 {
	if l.NodeID() == h.ctx.NodeID() {
		return h.ctx.Read(l)
	}
	return h.ctx.RRead(l)
}

// repoll is the back-off and next look of a wait on the state word. On the
// lock's home node the look is a shared-memory spin that returns once done
// says there is something to act on (api.Ctx.SpinUntil: the polls in between
// never reach the caller); elsewhere it is one verb, and the caller's loop
// comes round again.
func (h *RWHandle) repoll(l ptr.Ptr, iter int, done func(s uint64, now int64) bool) (uint64, int) {
	h.ctx.Pause(iter)
	if l.NodeID() == h.ctx.NodeID() {
		return h.ctx.SpinUntil(l, iter+1, done)
	}
	return h.ctx.RRead(l), iter + 1
}

// expired reports whether the acquisition in progress has a deadline and now
// is past it.
func (h *RWHandle) expired(now int64) bool {
	return h.deadline > 0 && now >= h.deadline
}

// readerOpen is a registered reader's wait: over when it may enter, or at the
// deadline. writerOpen is the writer's.
func (h *RWHandle) readerOpen(s uint64, now int64) bool {
	return h.readerEligible(s) || h.expired(now)
}

func (h *RWHandle) writerOpen(s uint64, now int64) bool {
	return h.writerEligible(s) || h.expired(now)
}

// readerEligible reports whether a reader may enter under state s.
func (h *RWHandle) readerEligible(s uint64) bool {
	if rwWrActive(s) {
		return false
	}
	if rwWrWait(s) == 0 {
		return true
	}
	// Writers are waiting: writer preference blocks outright; the budget
	// policy admits readers only during the reader phase.
	return h.budgeted && !rwWritePhase(s)
}

// readerEnter computes the successor state of a reader admission.
func (h *RWHandle) readerEnter(s uint64, registered bool) uint64 {
	ns := s + (1 << rwRdActiveShift)
	if registered {
		ns -= 1 << rwRdWaitShift
	}
	if !h.budgeted {
		return ns
	}
	if rwWrWait(s) > 0 {
		// A writer is waiting: this admission consumes reader budget
		// (ALock's pass counting, adapted to the reader cohort).
		g := rwGrants(s) + 1
		ns &^= uint64(rwGrantsMask) << rwGrantsShift
		if g >= uint64(h.cfg.ReadBudget) {
			ns |= 1 << rwPhaseBit // budget spent: yield the phase to writers
		} else {
			ns |= g << rwGrantsShift
		}
	} else {
		// Uncontended admission: the contention episode is over, so the
		// count must not carry into the next one (a stale count would
		// flip the next phase after far fewer admissions than budgeted).
		ns &^= uint64(rwGrantsMask) << rwGrantsShift
	}
	return ns
}

// writerEligible reports whether a writer may enter under state s.
func (h *RWHandle) writerEligible(s uint64) bool {
	if rwRdActive(s) != 0 || rwWrActive(s) {
		return false
	}
	if !h.budgeted {
		return true // writer preference: waiting readers never bar a writer
	}
	return rwRdWait(s) == 0 || rwWritePhase(s)
}

// writerEnter computes the successor state of a writer admission (the
// writer is always registered in wrWait at this point).
func (h *RWHandle) writerEnter(s uint64) uint64 {
	ns := (s - (1 << rwWrWaitShift)) | 1<<rwWrActiveBit
	if !h.budgeted {
		return ns
	}
	if rwRdWait(s) > 0 {
		g := rwGrants(s) + 1
		ns &^= uint64(rwGrantsMask) << rwGrantsShift
		if g >= uint64(h.cfg.WriteBudget) {
			ns &^= uint64(1) << rwPhaseBit // yield the phase back to readers
		} else {
			ns |= g << rwGrantsShift
		}
	} else {
		ns &^= uint64(rwGrantsMask) << rwGrantsShift // end of episode: no carryover
	}
	return ns
}

// The acquire/release paths are verb-frugal: every failed rCAS returns
// the word's current value, which seeds the next attempt, so the common
// paths never pay a separate read round trip — an uncontended acquire or
// release is exactly one verb. Fresh polls (cheap shared-memory reads on
// the home node) happen only between Pause back-offs while waiting.

// AcquireTimed implements api.Handle. An exclusive acquisition's state is
// the word it installed — the optimistic seed of its release's first rCAS;
// a shared one carries nothing.
func (h *RWHandle) AcquireTimed(l ptr.Ptr, mode api.Mode, deadlineNS int64) (api.AcqState, bool) {
	if mode == api.Shared {
		return api.AcqState{}, h.acquireShared(l, deadlineNS)
	}
	held, ok := h.acquireExcl(l, deadlineNS)
	return api.AcqState{Word: held}, ok
}

// ReleaseAcq implements api.Handle.
func (h *RWHandle) ReleaseAcq(l ptr.Ptr, mode api.Mode, st api.AcqState) {
	if mode == api.Shared {
		h.releaseShared(l)
		return
	}
	h.releaseExcl(l, st.Word)
}

// acquireShared is the shared acquire with a deadline (0 = block). The
// single-word timeout path is a bounded poll followed by a CAS retraction:
// a waiter that registered in rdWait takes itself back out before giving
// up, so writer admissions stop consuming budget on behalf of a goner.
func (h *RWHandle) acquireShared(l ptr.Ptr, deadlineNS int64) bool {
	// Optimistic: a pristine idle lock is entered with a single rCAS.
	s := h.ctx.RCAS(l, 0, h.readerEnter(0, false))
	if s == 0 {
		h.ctx.Fence()
		return true
	}
	h.deadline = deadlineNS
	registered := false
	iter := 0
	for {
		if h.readerEligible(s) {
			prev := h.ctx.RCAS(l, s, h.readerEnter(s, registered))
			if prev == s {
				h.ctx.Fence()
				return true
			}
			s = prev
			continue
		}
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			for registered {
				prev := h.ctx.RCAS(l, s, s-(1<<rwRdWaitShift))
				if prev == s {
					registered = false
				} else {
					s = prev
				}
			}
			return false
		}
		if h.budgeted && !registered {
			// Register as a waiting reader so writer admissions consume
			// write budget on our behalf.
			prev := h.ctx.RCAS(l, s, s+(1<<rwRdWaitShift))
			if prev == s {
				registered = true
				s += 1 << rwRdWaitShift
			} else {
				s = prev
			}
			continue
		}
		s, iter = h.repoll(l, iter, h.sharedDone)
	}
}

// releaseShared is the shared release.
func (h *RWHandle) releaseShared(l ptr.Ptr) {
	h.ctx.Fence()
	s := h.poll(l)
	for {
		prev := h.ctx.RCAS(l, s, s-(1<<rwRdActiveShift))
		if prev == s {
			return
		}
		s = prev
	}
}

// acquireExcl is the exclusive (write) acquire with a deadline (0 = block).
// On success the returned word is the state the acquire installed — the
// optimistic seed its matching release should use. On timeout the
// registration in wrWait is retracted by CAS and nothing is held.
func (h *RWHandle) acquireExcl(l ptr.Ptr, deadlineNS int64) (uint64, bool) {
	// Optimistic: a pristine idle lock is claimed with a single rCAS,
	// skipping the registration round trip the slow path pays.
	s := h.ctx.RCAS(l, 0, uint64(1)<<rwWrActiveBit)
	if s == 0 {
		h.ctx.Fence()
		return 1 << rwWrActiveBit, true
	}
	// Idle but with residual phase/grants bits: still a single-CAS claim.
	if rwRdActive(s) == 0 && !rwWrActive(s) && rwWrWait(s) == 0 && rwRdWait(s) == 0 {
		ns := s | 1<<rwWrActiveBit
		if h.budgeted {
			ns &^= uint64(rwGrantsMask) << rwGrantsShift // end of episode
		}
		if prev := h.ctx.RCAS(l, s, ns); prev == s {
			h.ctx.Fence()
			return ns, true
		}
	}
	// Register first — registration doubles as the "writer interested"
	// flag readers consult, like a Peterson flag. s already holds the
	// last observed word from the optimistic attempts above.
	for {
		prev := h.ctx.RCAS(l, s, s+(1<<rwWrWaitShift))
		if prev == s {
			s += 1 << rwWrWaitShift
			break
		}
		s = prev
	}
	h.deadline = deadlineNS
	iter := 0
	for {
		if h.writerEligible(s) {
			ns := h.writerEnter(s)
			prev := h.ctx.RCAS(l, s, ns)
			if prev == s {
				h.ctx.Fence()
				return ns, true
			}
			s = prev
			continue
		}
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			for {
				prev := h.ctx.RCAS(l, s, s-(1<<rwWrWaitShift))
				if prev == s {
					return 0, false
				}
				s = prev
			}
		}
		s, iter = h.repoll(l, iter, h.exclDone)
	}
}

// releaseExcl releases an exclusive acquisition, seeded with the state
// word that acquisition installed. A stale seed (waiters registered since)
// only costs one failed CAS — the retry loop reseeds from the returned
// previous value — never correctness.
func (h *RWHandle) releaseExcl(l ptr.Ptr, held uint64) {
	h.ctx.Fence()
	s := held // expected state from the acquire: usually still exact
	for {
		prev := h.ctx.RCAS(l, s, s&^(uint64(1)<<rwWrActiveBit))
		if prev == s {
			return
		}
		s = prev
	}
}

// RWBudgetProvider supplies the budgeted phase-fair reader/writer lock.
type RWBudgetProvider struct {
	Cfg RWConfig
}

// NewRWBudgetProvider returns a provider with the default budgets.
func NewRWBudgetProvider() *RWBudgetProvider {
	return &RWBudgetProvider{Cfg: DefaultRWConfig()}
}

// Name implements Provider.
func (*RWBudgetProvider) Name() string { return "rw-budget" }

// Prepare implements Provider (state is fully contained in the lock line).
func (*RWBudgetProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (p *RWBudgetProvider) NewHandle(ctx api.Ctx) api.Handle {
	return NewRWBudgetHandle(ctx, p.Cfg)
}

// AbortableTimed implements AbortableTimedProvider: single-word waiters
// retract their wait registration with one CAS on timeout.
func (*RWBudgetProvider) AbortableTimed() {}

// RWPrefProvider supplies the writer-preference baseline.
type RWPrefProvider struct{}

// Name implements Provider.
func (RWPrefProvider) Name() string { return "rw-wpref" }

// Prepare implements Provider.
func (RWPrefProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (RWPrefProvider) NewHandle(ctx api.Ctx) api.Handle { return NewRWPrefHandle(ctx) }

// AbortableTimed implements AbortableTimedProvider: single-word waiters
// retract their wait registration with one CAS on timeout.
func (RWPrefProvider) AbortableTimed() {}
