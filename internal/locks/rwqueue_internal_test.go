package locks

import (
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// mkGroup assembles an rw-queue group word from fields.
func mkGroup(rdActive, grants uint64, wrActive, wrWaiting bool) uint64 {
	s := rdActive<<rwqRdActiveShift | grants<<rwqGrantsShift
	if wrActive {
		s |= 1 << rwqWrActiveBit
	}
	if wrWaiting {
		s |= 1 << rwqWrWaitBit
	}
	return s
}

func TestReaderFastPathBudgetGate(t *testing.T) {
	h := &RWQueueHandle{cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	// An open group under budget admits through the fast path.
	if !h.readerFastEligible(mkGroup(2, 2, false, false)) {
		t.Error("open group under budget rejected")
	}
	// The budget closes the fast path: bounded same-class admission runs
	// keep a queued writer's wait finite.
	if h.readerFastEligible(mkGroup(4, 4, false, false)) {
		t.Error("fast path open past ReadBudget")
	}
	// A writer — active or registered for the drain wake — bars barging.
	if h.readerFastEligible(mkGroup(0, 0, true, false)) {
		t.Error("fast path open past an active writer")
	}
	if h.readerFastEligible(mkGroup(2, 1, false, true)) {
		t.Error("fast path open past a registered writer")
	}
	// The admission count gates the fast path even on an idle word: a
	// drained group's budget carries to the next fast-path episode.
	if h.readerFastEligible(mkGroup(0, 4, false, false)) {
		t.Error("fast path open on an idle word with the budget spent")
	}

	// Joining an open group counts the admission.
	ns := h.readerFastEnter(mkGroup(2, 2, false, false))
	if rwqRdActive(ns) != 3 || rwqGrants(ns) != 3 {
		t.Fatalf("group join malformed: rd=%d grants=%d", rwqRdActive(ns), rwqGrants(ns))
	}
}

// TestReaderBudgetRidesAcrossDrain pins the ReadBudget asymmetry fix with
// the pattern that exposed it: an alternating stream of lone readers, each
// entering an idle lock, draining, and re-entering. Before the fix a fresh
// group reset the admission count, so the stream barged through the fast
// path forever and a queued writer's ReadBudget bound held only within one
// sustained group. Now the count rides the drained word — the writer claim
// count's symmetric twin — so the stream spends exactly ReadBudget fast
// admissions before it must queue, and only a queue-mediated group open
// restarts the window.
func TestReaderBudgetRidesAcrossDrain(t *testing.T) {
	h := &RWQueueHandle{cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	s := uint64(0)
	entries := 0
	for h.readerFastEligible(s) {
		s = h.readerFastEnter(s)
		if rwqRdActive(s) != 1 {
			t.Fatalf("entry %d malformed: rd=%d (s=%#x)", entries+1, rwqRdActive(s), s)
		}
		entries++
		if entries > 4 {
			t.Fatal("alternating reader stream barged past ReadBudget")
		}
		s -= 1 << rwqRdActiveShift // drainExit, no writer waiting: count rides
	}
	if entries != 4 {
		t.Fatalf("fast path closed after %d admissions, want ReadBudget=4", entries)
	}

	// A queue-mediated group open resets both budget counts: the head is
	// the first admission and the fast-path window reopens behind it.
	ns := rwqGroupOpen(s | 2<<rwqWClaimShift)
	if rwqRdActive(ns) != 1 || rwqGrants(ns) != 1 || rwqWClaims(ns) != 0 {
		t.Fatalf("queue-mediated open malformed: rd=%d grants=%d claims=%d",
			rwqRdActive(ns), rwqGrants(ns), rwqWClaims(ns))
	}
	if !h.readerFastEligible(ns) {
		t.Error("fast path still closed after a queue-mediated group open")
	}
}

// TestWriterFastClaimBudgetGate pins the writer-side symmetry: the
// post-drain fast-claim window admits optimistic writer claims only while
// the consecutive-claim count is under WriteBudget, the count rides the
// state word across claim/release cycles, and every queue-mediated grant
// resets it.
func TestWriterFastClaimBudgetGate(t *testing.T) {
	h := &RWQueueHandle{cfg: RWConfig{ReadBudget: 4, WriteBudget: 2}}

	// Claims accumulate: claim -> release-to-idle -> claim, WriteBudget
	// times, then the window closes and the writer must queue.
	s := uint64(0)
	for i := 0; i < 2; i++ {
		if !h.writerFastEligible(s) {
			t.Fatalf("claim %d rejected under budget (s=%#x)", i+1, s)
		}
		s = writerFastEnter(s)
		if !rwqWrActive(s) || rwqWClaims(s) != uint64(i+1) {
			t.Fatalf("claim %d malformed: s=%#x", i+1, s)
		}
		if h.writerFastEligible(s) {
			t.Fatal("fast path open while a writer holds")
		}
		s &^= uint64(1) << rwqWrActiveBit // release-to-idle preserves the count
	}
	if h.writerFastEligible(s) {
		t.Fatalf("fast path open past WriteBudget (s=%#x)", s)
	}

	// A queue-mediated writer grant installs exactly the writer bit,
	// restarting the window.
	if got := uint64(1) << rwqWrActiveBit; rwqWClaims(got) != 0 || !h.writerFastEligible(got&^(1<<rwqWrActiveBit)) {
		t.Fatal("queue-mediated grant did not reset the claim window")
	}

	// A fresh reader group resets the count too: reader episodes end the
	// consecutive-claim run.
	ns := h.readerFastEnter(s)
	if rwqWClaims(ns) != 0 {
		t.Fatalf("fresh reader group kept writer claims: s=%#x", ns)
	}

	// Stale reader grants on the idle word do not gate writer claims.
	stale := mkGroup(0, 4, false, false)
	if !h.writerFastEligible(stale) {
		t.Fatal("stale reader grants closed the writer fast path")
	}
	if ns := writerFastEnter(stale); rwqGrants(ns) != 0 {
		t.Fatalf("writer claim kept stale reader grants: %#x", ns)
	}
}

func TestWriterFastClaimSaturates(t *testing.T) {
	s := uint64(rwqGrantsMask) << rwqWClaimShift // count at field width
	ns := writerFastEnter(s)
	if rwqWClaims(ns) != rwqGrantsMask {
		t.Fatalf("claim count overflowed: %#x", ns)
	}
	if rwqRdActive(ns) != 0 || !rwqWrActive(ns) {
		t.Fatalf("saturated claim corrupted the word: %#x", ns)
	}
}

func TestGroupJoinSaturatesGrants(t *testing.T) {
	// Queued FIFO readers are admitted past the budget (they waited their
	// turn), so the count must saturate at its field width instead of
	// overflowing into the writer bits.
	ns := rwqGroupJoin(mkGroup(300, rwqGrantsMask, false, false))
	if rwqRdActive(ns) != 301 {
		t.Fatalf("rdActive = %d", rwqRdActive(ns))
	}
	if rwqGrants(ns) != rwqGrantsMask {
		t.Fatalf("grants overflowed: %d", rwqGrants(ns))
	}
	if rwqWrActive(ns) || rwqWrWaiting(ns) {
		t.Fatal("grants overflow corrupted the writer bits")
	}
}

// TestWriterChainResetsClaimCount pins the WriteBudget exactness fix: a
// writer→writer handoff is a queue-mediated grant, so it must reset the
// optimistic-claim count (group-word bits 26..33). Before the fix the
// handoff never touched the group word and releaseIdle's retry loop
// preserves any bits it finds, so a claim count present when a writer
// chain formed rode every handoff untouched and landed in the idle word —
// the fast-claim window of the next episode started mis-counted and the
// WriteBudget bound held only per-episode, not exactly. The test plants a
// claim count at the head of a two-writer chain (modeling a grant path
// that leaves the count behind) and asserts the chain cannot carry it out.
func TestWriterChainResetsClaimCount(t *testing.T) {
	e := sim.New(1, 1<<18, model.Uniform(5), 1)
	l := e.Space().AllocLine(0)
	group := l.Add(rwqGroup)
	cfg := RWConfig{ReadBudget: 16, WriteBudget: 2}
	planted := uint64(1)<<rwqWrActiveBit | uint64(cfg.WriteBudget)<<rwqWClaimShift

	var afterChain uint64
	var fastDesc ptr.Ptr = ptr.FromWord(^uint64(0))

	// W0 fast-claims and holds long enough for a two-writer queue to form.
	e.Spawn(0, func(ctx api.Ctx) {
		h := NewRWQueueHandle(ctx, cfg)
		a, _ := h.acquireExcl(l, 0)
		ctx.Work(30 * time.Microsecond)
		h.releaseExcl(l, a)
	})
	// W1 queues (head). Once granted, the test plants a claim count at the
	// chain head — word and seen both, as a grant path that failed to reset
	// the count would leave them — then hands off to W2 (w→w).
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(5 * time.Microsecond)
		h := NewRWQueueHandle(ctx, cfg)
		a, _ := h.acquireExcl(l, 0)
		if a.Desc == ptr.Null {
			t.Error("W1 took the fast path; the schedule needs it queued")
		}
		ctx.Write(group, planted)
		a.Word = planted
		ctx.Work(5 * time.Microsecond)
		h.releaseExcl(l, a)
	})
	// W2 queues behind W1 and is granted by the w→w handoff; its release
	// drains the queue to idle.
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(10 * time.Microsecond)
		h := NewRWQueueHandle(ctx, cfg)
		a, _ := h.acquireExcl(l, 0)
		if a.Desc == ptr.Null {
			t.Error("W2 took the fast path; the schedule needs it queued")
		}
		ctx.Work(2 * time.Microsecond)
		h.releaseExcl(l, a)
	})
	// After the chain drains, the planted count must be gone: the idle word
	// is claim-free and a fresh writer claims through the fast path.
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(100 * time.Microsecond)
		afterChain = ctx.Read(group)
		h := NewRWQueueHandle(ctx, cfg)
		a, _ := h.acquireExcl(l, 0)
		fastDesc = a.Desc
		h.releaseExcl(l, a)
	})
	e.Run(1 << 40)

	if got := rwqWClaims(afterChain); got != 0 {
		t.Errorf("claim count %d survived the writer chain into the idle word (group=%#x)",
			got, afterChain)
	}
	if fastDesc != ptr.Null {
		t.Error("fresh writer was denied the fast-claim window after the chain")
	}
}
