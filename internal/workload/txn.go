// txn.go is the transaction layer: k-lock exclusive transactions on top
// of the acquisition-token API, with pluggable deadlock policies (Spec.
// TxnPolicy). The ordered policy is deadlock avoidance by lock ordering;
// timeout-backoff is deadlock recovery by bounded per-lock deadlines plus
// randomized exponential backoff; wait-die is deadlock prevention by age —
// a transaction's age is the first fencing token it was ever granted, and
// on a conflict the younger side self-aborts, so waits only ever point
// old→young and no cycle can form.
package workload

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alock/internal/api"
	"alock/internal/locktable"
)

// AgeTable is the wait-die policy's shared registry: which transaction age
// currently holds each lock, and which transaction ages are live. Like the
// fencing authority it lives outside simulated memory — it models the lock
// service's transaction metadata, not a lock-word protocol — so consulting
// it costs no simulated operations. It is mutex-protected for the
// real-goroutine engine; under the deterministic simulator the mutex is
// uncontended and every decision is part of the reproducible schedule.
type AgeTable struct {
	mu      sync.Mutex
	holders map[uint64]uint64   // lock word -> holder transaction age
	live    map[uint64]struct{} // live transaction ages
}

// NewAgeTable returns an empty registry. One table serves one run.
func NewAgeTable() *AgeTable {
	return &AgeTable{
		holders: make(map[uint64]uint64),
		live:    make(map[uint64]struct{}),
	}
}

// SetHolder records age as the current holder of the lock word.
func (t *AgeTable) SetHolder(lock, age uint64) {
	t.mu.Lock()
	t.holders[lock] = age
	t.mu.Unlock()
}

// ClearHolder removes the holder record, but only if age still owns it (a
// stale clear racing a fresh SetHolder must not erase the new holder).
func (t *AgeTable) ClearHolder(lock, age uint64) {
	t.mu.Lock()
	if t.holders[lock] == age {
		delete(t.holders, lock)
	}
	t.mu.Unlock()
}

// Holder reports the age currently holding the lock word.
func (t *AgeTable) Holder(lock uint64) (uint64, bool) {
	t.mu.Lock()
	age, ok := t.holders[lock]
	t.mu.Unlock()
	return age, ok
}

// TxnStart registers a live transaction age.
func (t *AgeTable) TxnStart(age uint64) {
	t.mu.Lock()
	t.live[age] = struct{}{}
	t.mu.Unlock()
}

// TxnEnd unregisters a transaction age (commit, or wind-down at the
// horizon).
func (t *AgeTable) TxnEnd(age uint64) {
	t.mu.Lock()
	delete(t.live, age)
	t.mu.Unlock()
}

// OldestLive returns the smallest live transaction age — the transaction
// wait-die must never abort (the invariant the tests pin).
func (t *AgeTable) OldestLive() (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min uint64
	found := false
	for age := range t.live {
		if !found || age < min {
			min, found = age, true //lint:allow maporder pure minimum over map keys is order-independent
		}
	}
	return min, found
}

// Env carries the run-wide shared state the transaction layer needs beyond
// the per-thread Spec. The zero value serves every TxnLocks == 0 spec.
type Env struct {
	// Backoff is this thread's randomized-backoff stream — a
	// sim.SubsystemBackoff stream from the run's PartitionedRNG, never the
	// workload stream, so backoff draws cannot shift the operation
	// schedule. Required when the spec's policy draws backoff
	// (timeout-backoff always; wait-die iff TxnBackoffNS > 0).
	Backoff *rand.Rand
	// Ages is the wait-die age registry, shared by every thread of the
	// run. Required for the wait-die policy.
	Ages *AgeTable
	// OnDie, when non-nil, observes every wait-die self-abort with the
	// dying transaction's age and the holder age that out-ranked it (test
	// hook; the deterministic simulator serializes calls).
	OnDie func(age, holderAge uint64)
}

// validateFor panics on a spec/env mismatch: these are programmer errors
// in the harness wiring, not runtime conditions.
func (e Env) validateFor(s Spec) {
	if s.TxnLocks < 2 {
		return
	}
	switch s.txnPolicy() {
	case TxnPolicyBackoff:
		if e.Backoff == nil {
			panic("workload: timeout-backoff policy needs Env.Backoff")
		}
	case TxnPolicyWaitDie:
		if e.Ages == nil {
			panic("workload: wait-die policy needs Env.Ages")
		}
		if s.TxnBackoffNS > 0 && e.Backoff == nil {
			panic("workload: wait-die with TxnBackoffNS needs Env.Backoff")
		}
	}
}

// TxnBackoffCapExp caps the exponential backoff growth: retry r draws from
// a window of TxnBackoffNS << min(r, TxnBackoffCapExp).
const TxnBackoffCapExp = 6

// TxnConfig summarizes the run-wide wiring a spec's transaction policy
// needs; the harness uses it to build Env and to reject algorithms whose
// deadlines are best-effort only.
type TxnConfig struct {
	// NeedsTimedPath: the policy recovers through real timeouts, so the
	// algorithm's timed path must be fully abortable
	// (locks.AbortableTimedProvider) — a best-effort deadline (filter,
	// bakery) or a committed waiter whose grant depends on another holder
	// (alock's cohort leaders) blocks forever inside a conflict cycle.
	NeedsTimedPath bool
	// NeedsAges: the policy consults the wait-die age registry.
	NeedsAges bool
	// NeedsBackoff: the policy draws from the randomized backoff stream.
	NeedsBackoff bool
}

// TxnConfigOf inspects a validated spec.
func TxnConfigOf(s Spec) TxnConfig {
	if s.TxnLocks < 2 {
		return TxnConfig{}
	}
	switch s.txnPolicy() {
	case TxnPolicyBackoff:
		return TxnConfig{NeedsTimedPath: true, NeedsBackoff: true}
	case TxnPolicyWaitDie:
		return TxnConfig{NeedsTimedPath: true, NeedsAges: true, NeedsBackoff: s.TxnBackoffNS > 0}
	}
	return TxnConfig{}
}

// pickTxnSet selects the transaction's TxnLocks distinct lock indices. The
// ring layout is deterministic (dining philosophers: thread t takes
// (t+j) mod L); otherwise locks are drawn from the locality/zipf picker
// with rejection of duplicates, falling back to a linear probe if the skew
// keeps hitting the same hot locks. Ordered specs sort the set ascending;
// unordered specs acquire in selection order.
func pickTxnSet(ctx api.Ctx, table *locktable.Table, spec Spec,
	rng *rand.Rand, skew *locktable.Skew, idxs []int) []int {

	k := spec.TxnLocks
	idxs = idxs[:0]
	if spec.TxnRing {
		base := ctx.ThreadID() % table.Len()
		for j := 0; j < k; j++ {
			idxs = append(idxs, (base+j)%table.Len())
		}
	} else {
		tries := 0
		for len(idxs) < k {
			c := table.PickSkewed(rng, ctx.NodeID(), spec.LocalityPct, skew)
			if tries++; tries > 16*k {
				// Pathological skew: finish the set with a linear probe so
				// the draw count stays bounded.
				for len(idxs) < k {
					if !containsInt(idxs, c) {
						idxs = append(idxs, c)
					}
					c = (c + 1) % table.Len()
				}
				break
			}
			if !containsInt(idxs, c) {
				idxs = append(idxs, c)
			}
		}
	}
	if spec.txnOrdered() {
		sort.Ints(idxs)
	}
	return idxs
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// releaseTxn releases every held guard in LIFO order, clearing wait-die
// holder records, and counts fenced releases (none are expected: every
// guard is live). It returns the emptied slice.
func releaseTxn(res *ThreadResult, h api.TokenLocker, env Env, spec Spec,
	held []api.Guard, age uint64, start int64) []api.Guard {

	for i := len(held) - 1; i >= 0; i-- {
		g := held[i]
		if env.Ages != nil {
			env.Ages.ClearHolder(g.Lock.Word(), age)
		}
		if h.Release(g) == api.Fenced && start >= spec.WarmupNS {
			res.FencedReleases++
		}
	}
	return held[:0]
}

// runTxnLoop is the transaction-mode operation loop: every operation is
// one k-lock exclusive transaction driven to commit (or to the horizon)
// under the spec's deadlock policy. Bursts and warmup gating follow the
// single-lock loop; a commit closes through the same opTail.
func runTxnLoop(ctx api.Ctx, h api.TokenLocker, table *locktable.Table,
	spec Spec, env Env, opsDone *atomic.Int64, targetOps int64,
	stopper StopRequester) ThreadResult {

	var res ThreadResult
	tail := opTail{ctx: ctx, res: &res, think: spec.Think,
		opsDone: opsDone, targetOps: targetOps, stopper: stopper}
	rng := ctx.Rand()
	skew := table.NewSkew(rng, ctx.NodeID(), spec.ZipfS)
	policy := spec.txnPolicy()

	burst := spec.BurstOnNS > 0
	var phaseEnd int64
	if burst {
		phaseEnd = ctx.Now() + 1 + rng.Int63n(spec.BurstOnNS)
	}

	idxs := make([]int, 0, spec.TxnLocks)
	held := make([]api.Guard, 0, spec.TxnLocks)
	for !ctx.Stopped() {
		if burst && ctx.Now() >= phaseEnd {
			ctx.Work(time.Duration(spec.BurstOffNS))
			phaseEnd = ctx.Now() + spec.BurstOnNS
			continue
		}
		idxs = pickTxnSet(ctx, table, spec, rng, skew, idxs)

		start := ctx.Now()
		var age uint64
		var retries int64
		committed, abandoned := false, false

	attempt:
		for {
			for _, li := range idxs {
				l := table.Ptr(li)
				var g api.Guard
				var out api.Outcome
				for { // wait-die waits re-arm the deadline here
					var opt api.AcquireOpts
					if spec.AcquireTimeoutNS > 0 {
						opt.DeadlineNS = ctx.Now() + spec.AcquireTimeoutNS
					}
					g, out = h.Acquire(l, api.Exclusive, opt)
					if out != api.TimedOut {
						break
					}
					if ctx.Stopped() {
						// The stop raced the timeout: abandon the attempt
						// outright — no policy abort is booked and no
						// backoff runs, so the reported abort counts are
						// policy decisions only.
						held = releaseTxn(&res, h, env, spec, held, age, start)
						abandoned = true
						break attempt
					}
					if policy == TxnPolicyWaitDie {
						holderAge, known := env.Ages.Holder(l.Word())
						if !known || age == 0 || age < holderAge {
							// Older than the holder (or nothing to compare
							// against): wait — re-arm the quantum and poll
							// again, keeping every held lock.
							continue
						}
						// Younger: die so the older holder never waits on
						// us — the abort below releases everything.
						if env.OnDie != nil {
							env.OnDie(age, holderAge)
						}
					}
					// Abort the attempt: back out of every held lock in
					// LIFO order.
					held = releaseTxn(&res, h, env, spec, held, age, start)
					if policy == TxnPolicyOrdered {
						// No retry story: the operation completes as a
						// timeout, exactly like PairProb's two-lock path.
						res.recordTimeout(spec, start, ctx.Now())
						res.TotalOps++
						abandoned = true
						break attempt
					}
					if start >= spec.WarmupNS {
						res.TxnAborts++
					}
					if spec.TxnBackoffNS > 0 {
						shift := retries
						if shift > TxnBackoffCapExp {
							shift = TxnBackoffCapExp
						}
						window := spec.TxnBackoffNS << uint(shift)
						ctx.Work(time.Duration(1 + env.Backoff.Int63n(window)))
					}
					if ctx.Stopped() {
						abandoned = true
						break attempt
					}
					retries++
					if start >= spec.WarmupNS {
						res.TxnRetries++
					}
					continue attempt
				}
				if out == api.AcquiredLate && start >= spec.WarmupNS {
					res.LateAcquires++
				}
				if age == 0 {
					// The transaction's very first grant: its fencing token
					// is the transaction's age for the rest of its life
					// (retries keep it, so a retrying transaction only ever
					// gets older relative to newcomers).
					age = g.Token
					if env.Ages != nil {
						env.Ages.TxnStart(age)
					}
				}
				if env.Ages != nil {
					env.Ages.SetHolder(l.Word(), age)
				}
				held = append(held, g)
			}
			committed = true
			break
		}

		if !committed {
			// Stopped() first: it has the releases above completed (api.Ctx,
			// Completion) before the age registry — Go state the other
			// threads read — changes.
			stopped := ctx.Stopped()
			if env.Ages != nil && age != 0 {
				env.Ages.TxnEnd(age)
			}
			if abandoned && stopped {
				break // horizon: the attempt is abandoned, nothing recorded
			}
			// Ordered-policy timeout: fall through to think time like the
			// single-lock loop's timeout path.
			if spec.Think > 0 {
				ctx.Work(spec.Think)
			}
			continue
		}

		if spec.CSWork > 0 {
			ctx.Work(spec.CSWork)
		}
		held = releaseTxn(&res, h, env, spec, held, age, start)
		end := ctx.Now() // before TxnEnd, for the same reason as above
		if env.Ages != nil && age != 0 {
			env.Ages.TxnEnd(age)
		}

		recorded := start >= spec.WarmupNS
		if recorded {
			res.Ops++
			res.WriteOps++
			res.WriteLatency.Add(end - start)
			res.TxnCommits++
			res.TxnRetryHist.Add(retries)
			res.CommitLatency.Add(end - start)
		}
		tail.done(end, recorded)
	}
	res.Latency.Merge(&res.ReadLatency)
	res.Latency.Merge(&res.WriteLatency)
	return res
}
