// Package guardflowtest exercises the guardflow analyzer: a Release or
// Abandon whose outcome is discarded must not repeat one already made on
// the same guard along some path.
package guardflowtest

import (
	"alock/internal/api"
	"alock/internal/ptr"
)

// locker models any TokenLocker-shaped implementation.
type locker struct{ t api.TokenLocker }

func (l *locker) Acquire(p ptr.Ptr, m api.Mode, o api.AcquireOpts) (api.Guard, api.Outcome) {
	return l.t.Acquire(p, m, o)
}

func (l *locker) Release(g api.Guard) api.ReleaseOutcome { return l.t.Release(g) }

func (l *locker) Abandon(g api.Guard) { l.t.Abandon(g) }

// doubleRelease releases twice and never looks at the second outcome.
func doubleRelease(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
	if out == api.TimedOut {
		return
	}
	h.Release(g)
	h.Release(g) // want `guard g already released on this path`
}

// releaseAfterAbandon gives the lock up twice: recovery, then the holder's
// own release, whose Fenced outcome nobody reads.
func releaseAfterAbandon(h *locker, p ptr.Ptr) {
	g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	h.Abandon(g)
	h.Release(g) // want `guard g already released on this path`
}

// deferredTwice releases inline and again at exit.
func deferredTwice(h *locker, p ptr.Ptr) {
	g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	h.Release(g)
	defer h.Release(g) // want `guard g already released on this path`
}

// mayDoubleRelease releases on one branch and again after the join: some
// path releases twice.
func mayDoubleRelease(h *locker, p ptr.Ptr, early bool) {
	g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	if early {
		h.Release(g)
	}
	h.Release(g) // want `guard g already released on this path`
}

// inLiteral: a function literal is checked as a function of its own.
func inLiteral(h *locker, p ptr.Ptr) func() {
	return func() {
		g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
		h.Release(g)
		h.Release(g) // want `guard g already released on this path`
	}
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

// pairBacksOut releases the first guard on a path that continues, and
// again at the loop's end on the path that did not: no finding.
func pairBacksOut(h *locker, p, q ptr.Ptr, n int) {
	for i := 0; i < n; i++ {
		g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
		if out == api.TimedOut {
			continue
		}
		var g2 api.Guard
		if i%2 == 0 {
			g2, out = h.Acquire(q, api.Exclusive, api.AcquireOpts{DeadlineNS: 10})
			if out == api.TimedOut {
				h.Release(g)
				continue
			}
		}
		if i%2 == 0 {
			h.Release(g2)
		}
		h.Release(g)
	}
}

// retryLoop reassigns the guard every iteration: the release at the end of
// one iteration does not carry into the next.
func retryLoop(h *locker, p ptr.Ptr, n int) {
	var g api.Guard
	for i := 0; i < n; i++ {
		g, _ = h.Acquire(p, api.Exclusive, api.AcquireOpts{})
		h.Release(g)
	}
}

// releaseHeld releases a held set: the range rebinds g each iteration.
func releaseHeld(h *locker, held []api.Guard) {
	for _, g := range held {
		h.Release(g)
	}
}

// deferredOnce registers the only release: no finding.
func deferredOnce(h *locker, p ptr.Ptr) {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	if !out.Granted() {
		return
	}
	defer h.Release(g)
}
