// Package guardflowtest exercises the guardflow analyzer's lifetime rules:
// guards must be released, abandoned, or handed off on every CFG path, with
// outcome checks refining which paths actually hold the lock.
package guardflowtest

import (
	"alock/internal/api"
	"alock/internal/ptr"
)

// locker models any TokenLocker-shaped implementation.
type locker struct{ t api.TokenLocker }

// Acquire passes the results straight through: the contract transfers to
// the caller, no finding.
func (l *locker) Acquire(p ptr.Ptr, m api.Mode, o api.AcquireOpts) (api.Guard, api.Outcome) {
	return l.t.Acquire(p, m, o)
}

func (l *locker) Release(g api.Guard) api.ReleaseOutcome { return l.t.Release(g) }

func (l *locker) Abandon(g api.Guard) { l.t.Abandon(g) }

// clean acquires, dismisses the timeout branch, and releases: no finding.
func clean(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == api.TimedOut {
		return
	}
	h.Release(g)
}

// leakEarlyReturn forgets the guard on the error path.
func leakEarlyReturn(h *locker, p ptr.Ptr, bad bool) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10}) // want `guard g may leak`
	if out == api.TimedOut {
		return
	}
	if bad {
		return // the live guard leaks here
	}
	h.Release(g)
}

// leakOnTimeoutBranch mixes up the outcome test: the code releases on the
// timeout branch (harmless, Fenced) and leaks on the granted one.
func leakOnTimeoutBranch(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10}) // want `guard g may leak`
	if out == api.TimedOut {
		h.Release(g)
		return
	}
	// granted path falls off without a release
}

// grantedRefinement: != TimedOut proves the guard live; releasing only
// under that test is exactly right.
func grantedRefinement(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out != api.TimedOut {
		h.Release(g)
	}
}

// grantedMethod uses Outcome.Granted for the refinement.
func grantedMethod(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if !out.Granted() {
		return
	}
	h.Release(g)
}

// timedOutAlias mirrors the public wrapper's constant re-export; the
// refinement must match it by value, not by object identity.
const timedOutAlias = api.TimedOut

// aliasedRefinement dismisses the timeout branch through the re-exported
// constant: no finding.
func aliasedRefinement(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == timedOutAlias {
		return
	}
	h.Release(g)
}

// escapesByReturn hands the live guard to the caller: the obligation
// transfers, no finding.
func escapesByReturn(h *locker, p ptr.Ptr) (api.Guard, api.Outcome) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	return g, out
}

// escapesToSlice parks guards in a held-set released elsewhere.
func escapesToSlice(h *locker, p ptr.Ptr, held []api.Guard) []api.Guard {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	if out == api.TimedOut {
		return held
	}
	held = append(held, g)
	return held
}

// releaseHelper provably releases its guard parameter.
func releaseHelper(h *locker, g api.Guard) {
	h.Release(g)
}

// dropsGuard provably drops its guard parameter — passing a live guard
// here does not discharge the caller's obligation.
func dropsGuard(h *locker, g api.Guard) int {
	return 0
}

// delegatesRelease trusts the helper's summary: no finding.
func delegatesRelease(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == api.TimedOut {
		return
	}
	releaseHelper(h, g)
}

// delegatesToDropper leaks: the callee's summary says the guard is not
// handled there.
func delegatesToDropper(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10}) // want `guard g may leak`
	if out == api.TimedOut {
		return
	}
	dropsGuard(h, g)
}

// deferredRelease registers the release once granted: every exit after it
// is covered.
func deferredRelease(h *locker, p ptr.Ptr, n int) int {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	if !out.Granted() {
		return 0
	}
	defer h.Release(g)
	if n > 0 {
		return n
	}
	return -n
}

// doubleRelease releases twice and never looks at the second outcome.
func doubleRelease(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == api.TimedOut {
		return
	}
	h.Release(g)
	h.Release(g) // want `already released on this path`
}

// fencedCheck is the sanctioned double-release shape: Abandon, then a
// Release whose Fenced outcome is asserted.
func fencedCheck(h *locker, p ptr.Ptr) bool {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == api.TimedOut {
		return false
	}
	h.Abandon(g)
	return h.Release(g) == api.Fenced
}

// retryLoop is the txn-harness shape: retry while TimedOut, then release.
func retryLoop(h *locker, p ptr.Ptr) {
	var g api.Guard
	var out api.Outcome
	for {
		g, out = h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
		if out != api.TimedOut {
			break
		}
	}
	h.Release(g)
}

// reacquireWhileHeld overwrites a live guard without releasing it first.
func reacquireWhileHeld(h *locker, p, q ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out != api.TimedOut {
		g, out = h.Acquire(q, api.Exclusive, api.AcquireOpts{DeadlineNS: 10}) // want `reacquired while the previous acquisition may still be held`
		if out != api.TimedOut {
			h.Release(g)
		}
	}
}

// pairLeaksFirst is the workload's two-lock shape. When the second acquire
// times out, the loop moves on with the first guard still held, so the
// guard leaks when the loop ends and the next iteration's acquire
// overwrites it.
func pairLeaksFirst(h *locker, p, q ptr.Ptr, n int) {
	for i := 0; i < n; i++ {
		g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10}) // want `guard g may leak` `guard g reacquired while the previous acquisition may still be held`
		if out == api.TimedOut {
			continue
		}
		g2, out2 := h.Acquire(q, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
		if out2 == api.TimedOut {
			continue // g is still held here
		}
		h.Release(g2)
		h.Release(g)
	}
}

// pairBacksOut releases the first guard before moving on: no finding.
func pairBacksOut(h *locker, p, q ptr.Ptr, n int) {
	for i := 0; i < n; i++ {
		g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
		if out == api.TimedOut {
			continue
		}
		g2, out2 := h.Acquire(q, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
		if out2 == api.TimedOut {
			h.Release(g)
			continue
		}
		h.Release(g2)
		h.Release(g)
	}
}
