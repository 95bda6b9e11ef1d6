// Package guardchecktest exercises the acquire-site rules of the guardflow
// analyzer over a locker with the TokenLocker Acquire shape: every acquire
// must keep the guard and check the outcome.
package guardchecktest

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

// proper checks the outcome and keeps the guard. (out != api.Acquired
// would not prove the guard dead: AcquiredLate also grants.)
func proper(h *locker, p ptr.Ptr) api.Guard {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	if !out.Granted() {
		return api.Guard{}
	}
	return g
}

// discardsOutcome blanks the outcome: a TimedOut grant would be treated
// as held.
func discardsOutcome(h *locker, p ptr.Ptr) api.Guard {
	g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{}) // want `outcome discarded`
	return g
}

// discardsGuard blanks the guard: an Acquired outcome would leak.
func discardsGuard(h *locker, p ptr.Ptr) bool {
	_, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{DeadlineNS: 1}) // want `guard discarded`
	return out == api.TimedOut
}

// neverChecks declares an outcome and only discards it.
func neverChecks(h *locker, p ptr.Ptr) api.Guard {
	g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{}) // want `outcome out is never checked`
	_ = out
	return g
}

// dropsEverything ignores both results: the bare call is the function's
// only contact with a guard.
func dropsEverything(h *locker, p ptr.Ptr) {
	h.Acquire(p, api.Exclusive, api.AcquireOpts{}) // want `results discarded`
}

// suppressed models the blocking-adapter pattern: a deadline-free acquire
// cannot time out, recorded as an accepted suppression.
func suppressed(h *locker, p ptr.Ptr) api.Guard {
	//lint:allow guardflow fixture: no deadline means the grant is unconditional
	g, _ := h.Acquire(p, api.Exclusive, api.AcquireOpts{})
	return g
}

// checkedInInit checks the outcome inside an if-init clause.
func checkedInInit(h *locker, p ptr.Ptr) bool {
	if g, out := h.Acquire(p, api.Exclusive, api.AcquireOpts{}); out.Granted() {
		h.Release(g)
		return true
	}
	return false
}
