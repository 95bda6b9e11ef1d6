package locks

import (
	"testing"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/sim"
)

// mkState assembles a state word from fields (active readers, writer bit,
// waiting writers/readers, grants, phase).
func mkState(rdActive, wrWait, rdWait, grants uint64, wrActive, writePhase bool) uint64 {
	s := rdActive<<rwRdActiveShift | wrWait<<rwWrWaitShift |
		rdWait<<rwRdWaitShift | grants<<rwGrantsShift
	if wrActive {
		s |= 1 << rwWrActiveBit
	}
	if writePhase {
		s |= 1 << rwPhaseBit
	}
	return s
}

func TestReaderEnterBudgetAccounting(t *testing.T) {
	h := &RWHandle{budgeted: true, cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	// With a writer waiting, each admission counts; the budget-exhausting
	// one flips the phase and zeroes the count.
	s := mkState(0, 1, 0, 2, false, false)
	ns := h.readerEnter(s, false)
	if rwRdActive(ns) != 1 || rwGrants(ns) != 3 || rwWritePhase(ns) {
		t.Fatalf("accounting admission wrong: rd=%d grants=%d write=%v",
			rwRdActive(ns), rwGrants(ns), rwWritePhase(ns))
	}
	s = mkState(0, 1, 0, 3, false, false)
	ns = h.readerEnter(s, false)
	if rwGrants(ns) != 0 || !rwWritePhase(ns) {
		t.Fatalf("budget exhaustion did not flip phase: grants=%d write=%v",
			rwGrants(ns), rwWritePhase(ns))
	}
}

// Regression: an uncontended admission must clear the grants field, or a
// stale count from the previous contention episode makes the next phase
// flip after far fewer admissions than the configured budget.
func TestEnterClearsStaleGrants(t *testing.T) {
	h := &RWHandle{budgeted: true, cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	s := mkState(0, 0, 0, 3, false, false) // grants carried over, no writer waiting
	ns := h.readerEnter(s, false)
	if rwGrants(ns) != 0 {
		t.Fatalf("reader admission carried %d stale grants into the next episode", rwGrants(ns))
	}

	s = mkState(0, 1, 0, 1, false, true) // writer entering, no readers waiting
	ns = h.writerEnter(s)
	if rwGrants(ns) != 0 {
		t.Fatalf("writer admission carried %d stale grants into the next episode", rwGrants(ns))
	}
	if !rwWrActive(ns) || rwWrWait(ns) != 0 {
		t.Fatalf("writer admission malformed: active=%v wait=%d", rwWrActive(ns), rwWrWait(ns))
	}
}

// An exclusive release seeded with a stale state word — here B's installed
// state handed to A's release, as any waiter registering between acquire
// and release would make it — fails its optimistic first rCAS and must
// recover through the retry path (rwlock.go's releaseExcl loop) without
// corrupting either lock.
func TestUnlockStaleHeldRetries(t *testing.T) {
	// Observations are collected inside the simulated thread and asserted
	// after e.Run: a t.Fatalf inside a spawned thread would skip the
	// engine's scheduler handoff and deadlock the test binary.
	var heldA, heldB, aAfterUnlockA, bAfterUnlockA, bAfterUnlockB uint64
	e := sim.New(1, 1<<16, model.Uniform(5), 1)
	e.Spawn(0, func(ctx api.Ctx) {
		h := NewRWBudgetHandle(ctx, DefaultRWConfig())
		a := ctx.Alloc(RWLockWords, RWLockWords)
		b := ctx.Alloc(RWLockWords, RWLockWords)
		// Seed B with a residual phase bit (as a drained write phase leaves
		// behind) so B's acquire installs a state word different from A's.
		ctx.RCAS(b, 0, 1<<rwPhaseBit)

		stA, _ := h.AcquireTimed(a, api.Exclusive, 0)
		heldA = stA.Word
		stB, _ := h.AcquireTimed(b, api.Exclusive, 0)
		heldB = stB.Word

		h.ReleaseAcq(a, api.Exclusive, stB) // first rCAS expects B's state: stale, must retry
		aAfterUnlockA = ctx.Read(a)
		bAfterUnlockA = ctx.Read(b)
		h.ReleaseAcq(b, api.Exclusive, stB)
		bAfterUnlockB = ctx.Read(b)
	})
	e.Run(1 << 40)

	if heldB == heldA {
		t.Fatalf("test is vacuous: B's acquire installed A's state %#x", heldB)
	}
	if rwWrActive(aAfterUnlockA) {
		t.Errorf("A still writer-locked after stale-held unlock: %#x", aAfterUnlockA)
	}
	if !rwWrActive(bAfterUnlockA) {
		t.Errorf("B lost its writer while A was unlocked: %#x", bAfterUnlockA)
	}
	if rwWrActive(bAfterUnlockB) {
		t.Errorf("B still writer-locked after unlock: %#x", bAfterUnlockB)
	}
}

func TestWriterEnterBudgetYieldsPhase(t *testing.T) {
	h := &RWHandle{budgeted: true, cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	// Readers waiting, one writer grant already spent: this admission
	// exhausts WriteBudget=2 and yields the phase back to readers.
	s := mkState(0, 1, 3, 1, false, true)
	ns := h.writerEnter(s)
	if rwWritePhase(ns) || rwGrants(ns) != 0 {
		t.Fatalf("write budget exhaustion did not yield: write=%v grants=%d",
			rwWritePhase(ns), rwGrants(ns))
	}
	if rwRdWait(ns) != 3 {
		t.Fatalf("waiting readers corrupted: %d", rwRdWait(ns))
	}
}
