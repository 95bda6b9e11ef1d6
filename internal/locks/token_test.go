package locks_test

import (
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/locktest"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// providerFor builds a registered algorithm with the given protocol mode.
func providerFor(t *testing.T, name string, timed bool) locks.Provider {
	t.Helper()
	p, err := locks.ByName(name, locks.Options{Timed: timed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// timedAlgos have a native timed acquire path.
var timedAlgos = []string{"spinlock", "mcs", "alock", "rw-budget", "rw-wpref", "rw-queue"}

// queuedAlgos park waiters on queue descriptors (abandonment + patching).
var queuedAlgos = []string{"mcs", "alock", "rw-queue"}

// TestOverlappingHoldsAllAlgorithms proves descriptor-per-acquisition
// correctness for every registered algorithm: hold two locks at once,
// release in both orders, under contention with Table 1 tearing on.
func TestOverlappingHoldsAllAlgorithms(t *testing.T) {
	for _, name := range locks.Names() {
		t.Run(name, func(t *testing.T) {
			locktest.CheckOverlappingHolds(t, providerFor(t, name, false), locktest.DefaultOverlapConfig())
		})
	}
}

// TestOverlappingHoldsTimedProtocol repeats the overlap check with the
// queued algorithms speaking the timed (claim/abandon) handoff protocol.
func TestOverlappingHoldsTimedProtocol(t *testing.T) {
	for _, name := range queuedAlgos {
		t.Run(name, func(t *testing.T) {
			locktest.CheckOverlappingHolds(t, providerFor(t, name, true), locktest.DefaultOverlapConfig())
		})
	}
}

// TestMutualExclusionUnderTokenAPI runs the classic serialization check
// for every registered algorithm (locktest routes all acquisitions through
// the acquisition-token layer).
func TestMutualExclusionUnderTokenAPI(t *testing.T) {
	for _, name := range locks.Names() {
		t.Run(name, func(t *testing.T) {
			locktest.CheckMutualExclusion(t, providerFor(t, name, false), locktest.DefaultMutexConfig())
		})
	}
}

// TestMutualExclusionTimedProtocol repeats the serialization check with
// the timed handoff protocol active (no deadlines in play: the protocol
// itself must not cost correctness).
func TestMutualExclusionTimedProtocol(t *testing.T) {
	for _, name := range queuedAlgos {
		t.Run(name, func(t *testing.T) {
			cfg := locktest.DefaultMutexConfig()
			prov := providerFor(t, name, true)
			locktest.CheckMutualExclusion(t, prov, cfg)
		})
	}
}

// TestTimeoutOutcomeAndDeadGuard: a waiter behind a long hold gives up at
// its deadline with the distinct TimedOut outcome, its dead guard's
// release is fenced, and the lock still works afterwards. The holder and
// waiter share a node so even ALock's cohort queue has a real (non-leader)
// waiter that can abandon.
func TestTimeoutOutcomeAndDeadGuard(t *testing.T) {
	for _, name := range timedAlgos {
		t.Run(name, func(t *testing.T) {
			e := sim.New(2, 1<<18, model.Uniform(10), 1)
			l := e.Space().AllocLine(0)
			prov := providerFor(t, name, true)
			ft := locks.NewFenceTable()

			var waiterOut api.Outcome
			var deadRelease api.ReleaseOutcome
			var reacquired bool
			e.Spawn(1, func(ctx api.Ctx) { // holder
				h := locks.TokenHandleFor(prov, ctx, ft)
				g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				ctx.Work(80 * time.Microsecond)
				if h.Release(g) != api.Released {
					t.Error("holder's own release fenced")
				}
			})
			e.Spawn(1, func(ctx api.Ctx) { // waiter
				h := locks.TokenHandleFor(prov, ctx, ft)
				ctx.Work(5 * time.Microsecond) // let the holder in first
				g, out := h.Acquire(l, api.Exclusive,
					api.AcquireOpts{DeadlineNS: ctx.Now() + 20_000})
				waiterOut = out
				deadRelease = h.Release(g) // dead guard: must bounce
				g2, out2 := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				if out2 == api.Acquired {
					reacquired = true
					h.Release(g2)
				}
			})
			e.Run(1 << 40)

			if waiterOut != api.TimedOut {
				t.Errorf("waiter outcome = %v, want TimedOut", waiterOut)
			}
			if deadRelease != api.Fenced {
				t.Errorf("dead guard release = %v, want Fenced", deadRelease)
			}
			if !reacquired {
				t.Error("lock unusable after a timeout")
			}
		})
	}
}

// TestAbandonRecoveryAndFencedLateRelease: an abandoned hold wedges the
// lock only until recovery reclaims it — a blocked waiter then acquires —
// and the crashed holder's late release is rejected by its stale token.
func TestAbandonRecoveryAndFencedLateRelease(t *testing.T) {
	for _, name := range timedAlgos {
		t.Run(name, func(t *testing.T) {
			e := sim.New(2, 1<<18, model.Uniform(10), 1)
			l := e.Space().AllocLine(0)
			prov := providerFor(t, name, true)
			ft := locks.NewFenceTable()

			const wedge = 30 * time.Microsecond
			var lateRelease api.ReleaseOutcome
			var waiterAt int64
			e.Spawn(1, func(ctx api.Ctx) { // the crasher
				h := locks.TokenHandleFor(prov, ctx, ft)
				g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				ctx.Work(wedge)
				h.Abandon(g) // recovery reclaims the lock here
				ctx.Work(10 * time.Microsecond)
				lateRelease = h.Release(g)
			})
			e.Spawn(1, func(ctx api.Ctx) { // a survivor, waiting blocked
				h := locks.TokenHandleFor(prov, ctx, ft)
				ctx.Work(2 * time.Microsecond)
				g, out := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				if out != api.Acquired {
					t.Error("blocking acquire failed")
					return
				}
				waiterAt = ctx.Now()
				h.Release(g)
			})
			e.Run(1 << 40)

			if lateRelease != api.Fenced {
				t.Errorf("late release after recovery = %v, want Fenced", lateRelease)
			}
			if waiterAt < wedge.Nanoseconds() {
				t.Errorf("waiter acquired at %dns, inside the wedge (< %dns)",
					waiterAt, wedge.Nanoseconds())
			}
		})
	}
}

// TestSuccessorPatchingSkipsAbandonedWaiter: with A holding, B queued with
// a deadline and C queued blocking behind B, B's timeout must not strand
// C — the release path patches the queue around B's abandoned descriptor
// and hands the lock to C. (A stranded C deadlocks the simulation, which
// panics, so completing at all is the assertion; the checks below pin the
// ordering.) Afterwards B reuses its abandoned descriptor for a fresh
// acquisition, exercising the skip-mark reclaim path.
func TestSuccessorPatchingSkipsAbandonedWaiter(t *testing.T) {
	for _, name := range queuedAlgos {
		t.Run(name, func(t *testing.T) {
			e := sim.New(2, 1<<18, model.Uniform(10), 1)
			l := e.Space().AllocLine(0)
			prov := providerFor(t, name, true)
			ft := locks.NewFenceTable()

			var bOut api.Outcome
			var bReused, cAcquired bool
			var cAt, releaseAt int64
			e.Spawn(1, func(ctx api.Ctx) { // A: holds 40us
				h := locks.TokenHandleFor(prov, ctx, ft)
				g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				ctx.Work(40 * time.Microsecond)
				releaseAt = ctx.Now()
				h.Release(g)
			})
			e.Spawn(1, func(ctx api.Ctx) { // B: queues behind A, gives up
				h := locks.TokenHandleFor(prov, ctx, ft)
				ctx.Work(3 * time.Microsecond)
				_, out := h.Acquire(l, api.Exclusive,
					api.AcquireOpts{DeadlineNS: ctx.Now() + 10_000})
				bOut = out
				// Long after the skip mark lands, acquire again: the
				// zombie descriptor must be recycled cleanly.
				ctx.Work(80 * time.Microsecond)
				g2, out2 := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				if out2 == api.Acquired {
					bReused = true
					h.Release(g2)
				}
			})
			e.Spawn(1, func(ctx api.Ctx) { // C: queues behind B, blocking
				h := locks.TokenHandleFor(prov, ctx, ft)
				ctx.Work(6 * time.Microsecond)
				g, out := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				if out == api.Acquired {
					cAcquired = true
					cAt = ctx.Now()
					ctx.Work(2 * time.Microsecond)
					h.Release(g)
				}
			})
			e.Run(1 << 40)

			if bOut != api.TimedOut {
				t.Errorf("B outcome = %v, want TimedOut", bOut)
			}
			if !cAcquired {
				t.Error("C never acquired")
			}
			if cAt < releaseAt {
				t.Errorf("C acquired at %dns before A released at %dns", cAt, releaseAt)
			}
			if !bReused {
				t.Error("B could not reuse its abandoned descriptor")
			}
		})
	}
}

// TestFencingTokensMonotonic pins the fencing-token contract: of any two
// grants, the later one carries the strictly larger token.
func TestFencingTokensMonotonic(t *testing.T) {
	e := sim.New(1, 1<<18, model.Uniform(10), 1)
	l := e.Space().AllocLine(0)
	prov := providerFor(t, "spinlock", true)
	ft := locks.NewFenceTable()
	e.Spawn(0, func(ctx api.Ctx) {
		h := locks.TokenHandleFor(prov, ctx, ft)
		var last uint64
		for i := 0; i < 10; i++ {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			if g.Token <= last {
				t.Errorf("grant %d token %d not above predecessor %d", i, g.Token, last)
			}
			last = g.Token
			h.Release(g)
		}
		// Double release: the second must fence.
		g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
		if h.Release(g) != api.Released || h.Release(g) != api.Fenced {
			t.Error("double release not fenced")
		}
	})
	e.Run(1 << 40)
}

// TestSharedTimeoutOnRWLocks exercises the shared-mode timed path: readers
// blocked out by a writer give up at their deadline and retract their
// registration (the lock stays healthy for later acquires).
func TestSharedTimeoutOnRWLocks(t *testing.T) {
	for _, name := range []string{"rw-budget", "rw-wpref", "rw-queue"} {
		t.Run(name, func(t *testing.T) {
			e := sim.New(2, 1<<18, model.Uniform(10), 1)
			l := e.Space().AllocLine(0)
			prov := providerFor(t, name, true)
			ft := locks.NewFenceTable()

			var out api.Outcome
			var readersAfter bool
			e.Spawn(1, func(ctx api.Ctx) { // writer holds 60us
				h := locks.TokenHandleFor(prov, ctx, ft)
				g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
				ctx.Work(60 * time.Microsecond)
				h.Release(g)
			})
			e.Spawn(1, func(ctx api.Ctx) { // reader times out, then re-reads
				h := locks.TokenHandleFor(prov, ctx, ft)
				ctx.Work(5 * time.Microsecond)
				_, o := h.Acquire(l, api.Shared, api.AcquireOpts{DeadlineNS: ctx.Now() + 15_000})
				out = o
				g, o2 := h.Acquire(l, api.Shared, api.AcquireOpts{})
				if o2 == api.Acquired {
					readersAfter = true
					h.Release(g)
				}
			})
			e.Run(1 << 40)
			if out != api.TimedOut {
				t.Errorf("reader outcome = %v, want TimedOut", out)
			}
			if !readersAfter {
				t.Error("shared mode dead after a reader timeout")
			}
		})
	}
}

// TestDrainedCountsStrayReleases pins the run-end gate on releases: a
// release of a guard no longer held — a second release, or the release of
// a guard that was never granted — is fenced off and counted, and Drained
// fails the run with the count and the lowest lock. The abandoned holder's
// one late release is expected and is not counted.
func TestDrainedCountsStrayReleases(t *testing.T) {
	cases := []struct {
		name string
		body func(t *testing.T, h api.TokenLocker, l ptr.Ptr)
		want string // "" = Drained returns nil; {l} is the lock
	}{
		{"release-twice", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			h.Release(g)
			if h.Release(g) != api.Fenced {
				t.Error("second release not fenced")
			}
		}, "1 releases of guards no longer held, the lowest on lock {l}"},
		{"abandon-then-checked-release", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			h.Abandon(g)
			if h.Release(g) != api.Fenced {
				t.Error("late release after abandon not fenced")
			}
		}, ""},
		{"abandon-then-two-releases", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			h.Abandon(g)
			h.Release(g)
			h.Release(g)
		}, "1 releases of guards no longer held, the lowest on lock {l}"},
		{"abandon-twice", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			h.Abandon(g)
			h.Abandon(g) // a no-op on a dead guard
			h.Release(g)
		}, ""},
		// A timed-out acquire returns the zero Guard: it was never granted,
		// so releasing it is a stray on the null lock.
		{"release-timed-out-guard", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			dead, out := h.Acquire(l, api.Exclusive, api.AcquireOpts{DeadlineNS: 1})
			if out != api.TimedOut {
				t.Fatalf("second acquire = %v, want TimedOut", out)
			}
			if h.Release(dead) != api.Fenced {
				t.Error("timed-out guard's release not fenced")
			}
			h.Release(g)
		}, "1 releases of guards no longer held, the lowest on lock null"},
		{"stray-and-leak", func(t *testing.T, h api.TokenLocker, l ptr.Ptr) {
			g, _ := h.Acquire(l, api.Exclusive, api.AcquireOpts{})
			h.Release(g)
			h.Release(g)
			h.Release(g)
			h.Acquire(l, api.Exclusive, api.AcquireOpts{})
		}, "2 releases of guards no longer held, the lowest on lock {l}; " +
			"1 guards still live at run end, 1 of them on lock {l}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(1, 1<<18, model.Uniform(10), 1)
			e.Space().AllocLine(0)
			l := e.Space().AllocLine(0)
			prov := providerFor(t, "spinlock", true)
			ft := locks.NewFenceTable()
			e.Spawn(0, func(ctx api.Ctx) { tc.body(t, locks.TokenHandleFor(prov, ctx, ft), l) })
			e.Run(1 << 40)
			err := ft.Drained()
			want := strings.ReplaceAll(tc.want, "{l}", l.String())
			switch {
			case want == "" && err != nil:
				t.Errorf("Drained = %v, want nil", err)
			case want != "" && (err == nil || err.Error() != want):
				t.Errorf("Drained = %v, want %q", err, want)
			}
		})
	}
}
