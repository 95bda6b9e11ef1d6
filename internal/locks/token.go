// token.go is the acquisition-token layer, the middle of the handle stack
// (algorithm api.Handle -> token layer -> optional api.Blocking): it turns
// any algorithm's api.Handle into the api.TokenLocker contract — explicit
// outcomes, per-acquisition state threaded through Guards by value, and
// fencing tokens minted at grant time and validated at release. Every
// workload, the lock service and the public alock.NewTokenHandle go through
// it; one tokenHandle serves all algorithms.
//
// The fencing authority (FenceTable) is deliberately *outside* simulated
// memory: it models the lock service's grant log, the thing a real system
// keeps in its lease manager or its storage heads, not in the lock word.
// It costs no simulated operations, so the token layer adds nothing to an
// algorithm's schedule.
package locks

import (
	"sync"

	"alock/internal/api"
	"alock/internal/ptr"
)

// FenceTable mints and validates fencing tokens for one experiment run.
// Tokens are monotonically increasing across the whole cluster: of any two
// grants, the later one carries the larger token, so downstream systems
// can reject writes guarded by a superseded grant — the classic
// fencing-token contract. A token is live from grant until its first
// retire; a second retire (double release, a timed-out guard, the late
// release of an abandoned hold) reports false and must not touch the lock.
//
// Safe for concurrent use (the real-goroutine engine shares one table);
// under the deterministic simulator the mutex is uncontended and the grant
// order — hence every token value — is part of the reproducible schedule.
type FenceTable struct {
	mu   sync.Mutex
	next uint64
	live map[uint64]map[uint64]struct{} // lock word -> live token set
}

// NewFenceTable returns an empty fencing authority.
func NewFenceTable() *FenceTable {
	return &FenceTable{live: make(map[uint64]map[uint64]struct{})}
}

// Grant mints the next fencing token for a grant on l.
func (t *FenceTable) Grant(l ptr.Ptr) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	set := t.live[l.Word()]
	if set == nil {
		set = make(map[uint64]struct{})
		t.live[l.Word()] = set
	}
	set[t.next] = struct{}{}
	return t.next
}

// Retire ends the token's life. It reports whether the token was live —
// false means the release it guards must be fenced off.
func (t *FenceTable) Retire(l ptr.Ptr, token uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.live[l.Word()]
	if _, ok := set[token]; !ok {
		return false
	}
	delete(set, token)
	return true
}

// AbortableTimedProvider marks providers whose exclusive-mode timed
// acquires can ALWAYS abandon before grant: no waiter state is committed
// while the grant still depends on another holder's release. This is the
// capability the unordered transaction policies (timeout-backoff,
// wait-die) require — inside a deadlock cycle every participant must be
// able to time out, or the cycle never breaks. The spinlock and the
// single-word RW locks qualify (bounded poll + CAS retraction of the wait
// registration), as do mcs and rw-queue (the abandon CAS loses only to a
// grant already in flight from a releasing holder). ALock does NOT: a
// cohort leader is committed while the lock's current holder still holds,
// so two leaders in an AB-BA cycle overshoot their deadlines forever.
type AbortableTimedProvider interface {
	Provider
	// AbortableTimed is a marker method; implementations are empty.
	AbortableTimed()
}

// ZombieCounter is implemented by handles whose algorithm parks abandoned
// descriptors on a zombie list until the granter's skip mark lands. Zombies
// reports how many are still parked — after a drain (every skip mark
// landed, then one release-side sweep) it must be zero, or the pool leaks
// descriptors from threads that stop acquiring.
type ZombieCounter interface {
	Zombies() int
}

// tokenHandle implements api.TokenLocker over an algorithm's api.Handle and
// the run's fencing authority.
type tokenHandle struct {
	ft  *FenceTable
	ctx api.Ctx
	alg api.Handle
}

var _ api.TokenLocker = (*tokenHandle)(nil)

func (h *tokenHandle) Acquire(l ptr.Ptr, mode api.Mode, opt api.AcquireOpts) (api.Guard, api.Outcome) {
	st, ok := h.alg.AcquireTimed(l, mode, opt.DeadlineNS)
	if !ok {
		return api.Guard{}, api.TimedOut
	}
	out := api.Acquired
	if opt.DeadlineNS > 0 && h.ctx.Now() > opt.DeadlineNS {
		// The grant landed past the deadline: an algorithm without a timed
		// path (filter, bakery) blocked straight through it, or a committed
		// waiter's grant won the timeout race late. Report the overshoot
		// instead of pretending the deadline was honored.
		out = api.AcquiredLate
	}
	// The grant is logged as soon as the lock is held: with no deadline (no
	// Now() above) that can be while the acquire's closing Fence is still
	// elapsing on the simulator (api.Ctx, Completion). Tokens of one lock
	// stay ordered by its hand-offs either way.
	return api.Guard{Lock: l, Mode: mode, Token: h.ft.Grant(l), State: st}, out
}

func (h *tokenHandle) Release(g api.Guard) api.ReleaseOutcome {
	if !h.ft.Retire(g.Lock, g.Token) {
		return api.Fenced // stale guard: leave the lock alone
	}
	h.alg.ReleaseAcq(g.Lock, g.Mode, g.State)
	return api.Released
}

func (h *tokenHandle) Abandon(g api.Guard) {
	if h.ft.Retire(g.Lock, g.Token) {
		// Recovery physically reclaims the crashed holder's lock; the
		// retired token fences the holder's own late Release off.
		h.alg.ReleaseAcq(g.Lock, g.Mode, g.State)
	}
}

// TokenHandleFor returns a token-API handle for any provider. Deadlines are
// honored as far as the algorithm's own timed path goes: filter and bakery
// block through them and report AcquiredLate, but fencing-token semantics
// hold in full for every algorithm.
func TokenHandleFor(p Provider, ctx api.Ctx, ft *FenceTable) api.TokenLocker {
	return &tokenHandle{ft: ft, ctx: ctx, alg: p.NewHandle(ctx)}
}
