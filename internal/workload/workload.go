// Package workload drives the lock-table benchmark of Section 6: each
// application thread repeatedly picks a lock — local with the configured
// locality probability — performs one Lock, an optional critical-section
// body, and one Unlock, which together constitute one "operation" in every
// figure of the paper.
package workload

import (
	"fmt"
	"sync/atomic"
	"time"

	"alock/internal/api"
	"alock/internal/locktable"
	"alock/internal/stats"
)

// Spec describes one thread's workload.
type Spec struct {
	// LocalityPct is the percentage of operations targeting locks homed on
	// the thread's own node (the paper sweeps 85, 90, 95, 100).
	LocalityPct int
	// CSWork is the simulated critical-section body duration.
	CSWork time.Duration
	// Think is the simulated time between operations (outside the lock).
	Think time.Duration
	// WarmupNS: operations completing before this engine time are executed
	// but not recorded.
	WarmupNS int64
	// ZipfS, when > 1, skews lock popularity within each locality class
	// with a Zipf(s) rank distribution (hot-key extension; the paper's
	// workloads are uniform).
	ZipfS float64
	// BurstOnNS/BurstOffNS, when both positive, gate the loop through
	// on/off phases: the thread issues operations for BurstOnNS, then goes
	// idle for BurstOffNS, and repeats (bursty-arrival extension; the
	// paper's threads run open-throttle). Each thread's first phase
	// boundary is drawn from its deterministic stream so the cluster's
	// bursts are staggered rather than lockstep.
	BurstOnNS  int64
	BurstOffNS int64
	// ReadPct is the percentage of operations that acquire the lock in
	// shared (read) mode; the rest acquire exclusive. Zero reproduces the
	// paper's exclusive-only workloads and draws nothing from the RNG, so
	// existing schedules are untouched.
	ReadPct int
	// LeaseProb, when > 0, is the per-operation probability of a
	// lease-style long hold: the critical section lasts LeaseHoldNS
	// instead of CSWork, modeling ownership leases, long scans, or a
	// briefly wedged holder the rest of the cluster must ride out.
	// A lease models ownership, so a leased operation always acquires
	// exclusive (write) mode regardless of ReadPct.
	LeaseProb float64
	// LeaseHoldNS is the duration of a lease hold.
	LeaseHoldNS int64
	// AcquireTimeoutNS, when > 0, bounds every acquisition: an acquire
	// still waiting after this much engine time gives up and the
	// operation completes with the timeout outcome (recorded separately —
	// never in Ops/Latency). Requires a run whose lock handles speak the
	// timed protocol (harness wires this through locks.Options.Timed).
	// Deadlines draw nothing from the RNG, so timeout-free specs replay
	// bit-identically.
	AcquireTimeoutNS int64
	// AbandonProb, when > 0, is the per-operation probability that the
	// holder "crashes": it holds the lock for AbandonHoldNS — during
	// which waiters must time out to make progress — after which recovery
	// reclaims the lock (TokenLocker.Abandon) and the crashed holder's
	// own late release is fenced off by its stale token. Only exclusive
	// single-lock holds crash (the case that wedges the lock); the draw
	// is RNG-gated so abandon-free specs replay bit-identically.
	AbandonProb float64
	// AbandonHoldNS is the dead time an abandoned hold wedges its lock.
	AbandonHoldNS int64
	// PairProb, when > 0, is the per-operation probability of a two-lock
	// transaction: the thread acquires two distinct locks in ascending
	// table order (the classic deadlock-avoiding discipline), runs one
	// critical section under both, and releases in reverse order. Pairs
	// acquire exclusive mode and need descriptor-per-acquisition locks
	// (every registered algorithm qualifies). RNG-gated.
	PairProb float64
	// TxnLocks, when >= 2, turns every operation into a k-lock exclusive
	// transaction (generalizing PairProb's two-lock special case): the
	// thread acquires TxnLocks distinct locks, runs one critical section
	// under all of them, and releases in LIFO order. How conflicts between
	// transactions resolve is TxnPolicy's business. All transaction draws
	// are RNG-gated: TxnLocks == 0 specs replay existing schedules
	// bit-identically.
	TxnLocks int
	// TxnOrder selects the acquisition sequence within a transaction:
	// TxnOrdered sorts the lock set ascending (the classic deadlock-free
	// discipline), TxnUnordered acquires in selection order — deadlock-
	// prone by construction, which is the point of the deadlock policies.
	// Empty defaults to the policy's natural order (ordered for the
	// ordered policy, unordered for the others).
	TxnOrder string
	// TxnPolicy selects the deadlock policy:
	//
	//   - TxnPolicyOrdered: acquisitions block (or time out, recording the
	//     operation as a timeout like PairProb does); deadlock is avoided
	//     by the ascending order, so it requires TxnOrdered.
	//   - TxnPolicyBackoff ("timeout-backoff"): unordered acquires, each
	//     bounded by AcquireTimeoutNS; on TimedOut every held guard is
	//     released in LIFO order and the transaction retries after a
	//     randomized, capped exponential backoff drawn from the run's
	//     backoff stream (Env.Backoff — sim.SubsystemBackoff, never the
	//     workload stream). Requires AcquireTimeoutNS and TxnBackoffNS.
	//   - TxnPolicyWaitDie ("wait-die"): a transaction's age is the first
	//     fencing token it is ever granted; on a lock timeout the waiter
	//     consults the age registry (Env.Ages) and either keeps waiting
	//     (it is older than the holder) or self-aborts, releases all held
	//     guards and retries with its original age (it is younger). Waits
	//     only ever point old→young, so no cycle forms, and the oldest
	//     live transaction never aborts. Requires AcquireTimeoutNS as the
	//     wait quantum; TxnBackoffNS optionally pads each retry.
	TxnPolicy string
	// TxnBackoffNS is the base backoff: retry r of a transaction sleeps
	// uniform(1, TxnBackoffNS << min(r, 6)) ns before re-acquiring.
	TxnBackoffNS int64
	// TxnRing pins each transaction's lock set to the dining-philosophers
	// layout instead of random selection: thread t takes locks (t+j) mod
	// table-size for j in 0..TxnLocks-1, so under TxnUnordered the last
	// thread's wrap-around closes the classic cycle.
	TxnRing bool
}

// TxnOrder values.
const (
	TxnOrdered   = "ordered"
	TxnUnordered = "unordered"
)

// TxnPolicy values.
const (
	TxnPolicyOrdered = "ordered"
	TxnPolicyBackoff = "timeout-backoff"
	TxnPolicyWaitDie = "wait-die"
)

// txnPolicy returns the effective policy (empty means ordered).
func (s Spec) txnPolicy() string {
	if s.TxnPolicy == "" {
		return TxnPolicyOrdered
	}
	return s.TxnPolicy
}

// txnOrdered reports whether the lock set is acquired in ascending order.
func (s Spec) txnOrdered() bool {
	if s.TxnOrder == "" {
		return s.txnPolicy() == TxnPolicyOrdered
	}
	return s.TxnOrder == TxnOrdered
}

// Validate rejects nonsensical specs.
func (s Spec) Validate() error {
	if s.LocalityPct < 0 || s.LocalityPct > 100 {
		return fmt.Errorf("workload: locality %d%% out of range", s.LocalityPct)
	}
	if s.CSWork < 0 || s.Think < 0 || s.WarmupNS < 0 {
		return fmt.Errorf("workload: negative durations")
	}
	if s.ZipfS != 0 && !(s.ZipfS > 1) { // also rejects NaN
		return fmt.Errorf("workload: ZipfS must be > 1 (got %v)", s.ZipfS)
	}
	if s.BurstOnNS < 0 || s.BurstOffNS < 0 {
		return fmt.Errorf("workload: negative burst phases on=%d off=%d", s.BurstOnNS, s.BurstOffNS)
	}
	if (s.BurstOnNS > 0) != (s.BurstOffNS > 0) {
		return fmt.Errorf("workload: burst phases need both on and off (on=%d off=%d)",
			s.BurstOnNS, s.BurstOffNS)
	}
	if s.ReadPct < 0 || s.ReadPct > 100 {
		return fmt.Errorf("workload: read share %d%% out of range", s.ReadPct)
	}
	if !(s.LeaseProb >= 0 && s.LeaseProb <= 1) { // also rejects NaN
		return fmt.Errorf("workload: lease probability %v out of range", s.LeaseProb)
	}
	if s.LeaseHoldNS < 0 || (s.LeaseProb > 0) != (s.LeaseHoldNS > 0) {
		return fmt.Errorf("workload: lease needs both probability and hold (prob=%v hold=%d)",
			s.LeaseProb, s.LeaseHoldNS)
	}
	if s.AcquireTimeoutNS < 0 {
		return fmt.Errorf("workload: negative acquire timeout %d", s.AcquireTimeoutNS)
	}
	if !(s.AbandonProb >= 0 && s.AbandonProb <= 1) { // also rejects NaN
		return fmt.Errorf("workload: abandon probability %v out of range", s.AbandonProb)
	}
	if s.AbandonHoldNS < 0 || (s.AbandonProb > 0) != (s.AbandonHoldNS > 0) {
		return fmt.Errorf("workload: abandon needs both probability and hold (prob=%v hold=%d)",
			s.AbandonProb, s.AbandonHoldNS)
	}
	if !(s.PairProb >= 0 && s.PairProb <= 1) { // also rejects NaN
		return fmt.Errorf("workload: pair probability %v out of range", s.PairProb)
	}
	if s.TxnLocks < 0 || s.TxnLocks == 1 {
		return fmt.Errorf("workload: TxnLocks %d (transactions need k >= 2)", s.TxnLocks)
	}
	if s.TxnBackoffNS < 0 {
		return fmt.Errorf("workload: negative txn backoff %d", s.TxnBackoffNS)
	}
	if s.TxnLocks == 0 {
		if s.TxnOrder != "" || s.TxnPolicy != "" || s.TxnBackoffNS != 0 || s.TxnRing {
			return fmt.Errorf("workload: txn knobs set without TxnLocks")
		}
		return nil
	}
	switch s.TxnOrder {
	case "", TxnOrdered, TxnUnordered:
	default:
		return fmt.Errorf("workload: unknown TxnOrder %q", s.TxnOrder)
	}
	switch s.txnPolicy() {
	case TxnPolicyOrdered:
		if !s.txnOrdered() {
			// Blocking unordered acquisition has no conflict-resolution
			// story: two transactions genuinely deadlock.
			return fmt.Errorf("workload: the ordered policy requires ordered acquisition")
		}
	case TxnPolicyBackoff:
		if s.AcquireTimeoutNS <= 0 {
			return fmt.Errorf("workload: %s needs AcquireTimeoutNS as the per-lock deadline", TxnPolicyBackoff)
		}
		if s.TxnBackoffNS <= 0 {
			return fmt.Errorf("workload: %s needs TxnBackoffNS", TxnPolicyBackoff)
		}
	case TxnPolicyWaitDie:
		if s.AcquireTimeoutNS <= 0 {
			return fmt.Errorf("workload: %s needs AcquireTimeoutNS as the wait quantum", TxnPolicyWaitDie)
		}
	default:
		return fmt.Errorf("workload: unknown TxnPolicy %q", s.TxnPolicy)
	}
	if s.ReadPct != 0 || s.LeaseProb != 0 || s.AbandonProb != 0 || s.PairProb != 0 {
		// Transactions own the whole operation mix: they are exclusive by
		// nature and subsume PairProb; the crash/lease axes would need
		// their own transactional semantics to be meaningful.
		return fmt.Errorf("workload: TxnLocks excludes ReadPct/LeaseProb/AbandonProb/PairProb")
	}
	return nil
}

// ThreadResult is what one thread's loop produced.
type ThreadResult struct {
	Ops        int64 // recorded (post-warmup) completed operations
	TotalOps   int64 // including warmup, timeouts and abandons
	Latency    stats.Hist
	FirstRecNS int64 // engine time of first recorded completion
	LastRecNS  int64 // engine time of last recorded completion
	// ReadOps/WriteOps split Ops by acquire mode; ReadLatency/WriteLatency
	// split Latency the same way (exclusive-only workloads record
	// everything as writes).
	ReadOps      int64
	WriteOps     int64
	ReadLatency  stats.Hist
	WriteLatency stats.Hist
	// Acquisition outcomes beyond the happy path (recorded post-warmup,
	// like Ops). Timeouts counts operations that gave up waiting;
	// TimeoutLatency is their acquire-latency-to-outcome histogram — how
	// long a thread burned before giving up, the tail the deadline is
	// supposed to cap. Abandons counts simulated holder crashes, and
	// FencedReleases counts releases rejected by a stale fencing token
	// (every abandoned hold produces one when the "crashed" holder
	// retries its release).
	Timeouts       int64
	TimeoutLatency stats.Hist
	Abandons       int64
	FencedReleases int64
	// LateAcquires counts grants that landed after their requested
	// deadline (api.AcquiredLate): a grant whose last verb was issued
	// before the deadline but completed after it, or a committed waiter's
	// grant winning the timeout race late. The operation still completes and is counted
	// in Ops; this counter is the honesty line — how often the deadline
	// was overshot rather than honored.
	LateAcquires int64
	// PairOps counts completed two-lock transactions (a subset of Ops).
	PairOps int64
	// Transaction-layer outcomes (TxnLocks >= 2; post-warmup, like Ops).
	// TxnCommits counts committed transactions (a subset of Ops, which
	// counts each committed transaction as one operation); TxnAborts
	// counts attempts abandoned by the deadlock policy (timeout-backoff
	// give-ups, wait-die self-aborts); TxnRetries counts re-attempts
	// actually started after an abort. TxnRetryHist is the per-commit
	// retry-count distribution and CommitLatency the per-commit
	// start-to-release latency distribution.
	TxnCommits    int64
	TxnAborts     int64
	TxnRetries    int64
	TxnRetryHist  stats.Hist
	CommitLatency stats.Hist
}

// StopRequester is the subset of the engine the loop needs to end a run
// early; internal/sim.Engine implements it.
type StopRequester interface{ RequestStop() }

// Run executes the operation loop until ctx.Stopped(). Every operation is
// one acquisition (shared for the ReadPct share, exclusive otherwise; a
// PairProb draw acquires a second lock in ascending order), an optional
// critical-section body, and the matching release(s) — all through the
// acquisition-token API, so outcomes are explicit: a deadline that fires
// records a timeout, an AbandonProb draw simulates a crashed holder whose
// late release is fenced. Latency is the full acquire-to-release-return
// span, as in the paper ("operations that encompass both one lock and one
// unlock operation").
//
// If stopper is non-nil and opsDone (shared across threads) reaches
// targetOps, the run is cut short — throughput remains unbiased because it
// is computed from recorded spans, not from the nominal horizon.
func Run(ctx api.Ctx, h api.TokenLocker, table *locktable.Table, spec Spec,
	opsDone *atomic.Int64, targetOps int64, stopper StopRequester) ThreadResult {
	return RunEnv(ctx, h, table, spec, Env{}, opsDone, targetOps, stopper)
}

// RunEnv is Run with the run-wide shared transaction state (backoff
// stream, wait-die age registry). Specs with TxnLocks >= 2 run the
// transaction loop; everything else runs the single-lock loop and ignores
// env.
func RunEnv(ctx api.Ctx, h api.TokenLocker, table *locktable.Table, spec Spec,
	env Env, opsDone *atomic.Int64, targetOps int64, stopper StopRequester) ThreadResult {

	if err := spec.Validate(); err != nil {
		panic(err)
	}
	env.validateFor(spec)
	if spec.TxnLocks >= 2 {
		return runTxnLoop(ctx, h, table, spec, env, opsDone, targetOps, stopper)
	}
	var res ThreadResult
	tail := opTail{ctx: ctx, res: &res, think: spec.Think,
		opsDone: opsDone, targetOps: targetOps, stopper: stopper}
	rng := ctx.Rand()
	skew := table.NewSkew(rng, ctx.NodeID(), spec.ZipfS)
	// Bursty arrivals: phaseEnd is the engine time the current on-phase
	// closes; the first boundary is staggered per thread.
	burst := spec.BurstOnNS > 0
	var phaseEnd int64
	if burst {
		phaseEnd = ctx.Now() + 1 + rng.Int63n(spec.BurstOnNS)
	}
	for !ctx.Stopped() {
		if burst && ctx.Now() >= phaseEnd {
			ctx.Work(time.Duration(spec.BurstOffNS))
			phaseEnd = ctx.Now() + spec.BurstOnNS
			continue
		}
		idx := table.PickSkewed(rng, ctx.NodeID(), spec.LocalityPct, skew)

		// Feature draws are gated so a spec without them consumes nothing
		// from the stream: feature-free schedules replay bit-identically.
		isRead := spec.ReadPct > 0 && rng.Intn(100) < spec.ReadPct
		hold := spec.CSWork
		if spec.LeaseProb > 0 && rng.Float64() < spec.LeaseProb {
			hold = time.Duration(spec.LeaseHoldNS)
			isRead = false // a lease is ownership: always a write-side hold
		}
		pairIdx := -1
		if spec.PairProb > 0 && rng.Float64() < spec.PairProb {
			// Second lock, uniform over the rest of the table; the pair is
			// ordered ascending so no two transactions deadlock.
			j := rng.Intn(table.Len() - 1)
			if j >= idx {
				j++
			}
			if j < idx {
				idx, j = j, idx
			}
			pairIdx = j
			isRead = false // transactions take ownership of both locks
		}
		// Crashes are modeled on exclusive single-lock holds — the case
		// that wedges the lock (a crashed reader leaves other readers
		// running, a different severity). The draw itself stays gated
		// only on the spec so RNG consumption is mode-independent.
		abandon := spec.AbandonProb > 0 && rng.Float64() < spec.AbandonProb &&
			pairIdx < 0 && !isRead

		l := table.Ptr(idx)
		mode := api.Exclusive
		if isRead {
			mode = api.Shared
		}
		var opt api.AcquireOpts
		if spec.AcquireTimeoutNS > 0 {
			opt.DeadlineNS = ctx.Now() + spec.AcquireTimeoutNS
		}

		start := ctx.Now()
		g, out := h.Acquire(l, mode, opt)
		if out == api.TimedOut {
			res.recordTimeout(spec, start, ctx.Now())
			tail.done(0, false)
			continue
		}
		if out == api.AcquiredLate && start >= spec.WarmupNS {
			res.LateAcquires++
		}
		var g2 api.Guard
		if pairIdx >= 0 {
			g2, out = h.Acquire(table.Ptr(pairIdx), api.Exclusive, opt)
			if out == api.TimedOut {
				// The transaction cannot complete: back out of the first
				// lock and record the whole operation as a timeout.
				h.Release(g)
				res.recordTimeout(spec, start, ctx.Now())
				tail.done(0, false)
				continue
			}
			if out == api.AcquiredLate && start >= spec.WarmupNS {
				res.LateAcquires++
			}
		}

		if abandon {
			// A crashed holder: the lock stays wedged for the abandon hold
			// (waiters must time out to survive), then recovery reclaims
			// it and the holder's own late release bounces off the fence.
			ctx.Work(time.Duration(spec.AbandonHoldNS))
			h.Abandon(g)
			if h.Release(g) == api.Fenced {
				if start >= spec.WarmupNS {
					res.FencedReleases++
				}
			}
			if start >= spec.WarmupNS {
				res.Abandons++
			}
			tail.done(0, false)
			continue
		}

		if hold > 0 {
			ctx.Work(hold)
		}
		if pairIdx >= 0 {
			if h.Release(g2) == api.Fenced && start >= spec.WarmupNS {
				res.FencedReleases++
			}
		}
		if h.Release(g) == api.Fenced && start >= spec.WarmupNS {
			res.FencedReleases++
		}
		end := ctx.Now()

		recorded := start >= spec.WarmupNS
		if recorded {
			res.Ops++
			if pairIdx >= 0 {
				res.PairOps++
			}
			if isRead {
				res.ReadOps++
				res.ReadLatency.Add(end - start)
			} else {
				res.WriteOps++
				res.WriteLatency.Add(end - start)
			}
		}
		tail.done(end, recorded)
	}
	// The combined hist is the union of the two class hists (they
	// partition the samples), so it is assembled once here instead of
	// paying a second Hist.Add per operation on the hot path.
	res.Latency.Merge(&res.ReadLatency)
	res.Latency.Merge(&res.WriteLatency)
	return res
}

// opTail is the bookkeeping every operation of either loop ends with,
// whatever it did in between.
type opTail struct {
	ctx   api.Ctx
	res   *ThreadResult
	think time.Duration
	// The shared TargetOps countdown (nil on runs without a target).
	opsDone   *atomic.Int64
	targetOps int64
	stopper   StopRequester
}

// done closes one operation: it counts toward TotalOps; a recorded
// completion at engine time end also moves the thread's recorded span and
// the run-wide countdown, requesting the stop when the target is reached;
// then the thread thinks. end must come from a ctx.Now() the caller made after
// the operation's last call: RequestStop goes to the engine, not through ctx,
// so it is that Now() which has the thread's posted Write/Fence of the release
// completed (api.Ctx, Completion) and the stop land at the event it always did.
func (t *opTail) done(end int64, recorded bool) {
	t.res.TotalOps++
	if recorded {
		if t.res.FirstRecNS == 0 {
			t.res.FirstRecNS = end
		}
		t.res.LastRecNS = end
		// Atomic: threads of different nodes end operations concurrently in
		// parallel windows. The count at a window barrier is exact either way,
		// and the engine's stop guard keeps the target out of every window.
		if t.opsDone != nil {
			if n := t.opsDone.Add(1); t.stopper != nil && t.targetOps > 0 && n >= t.targetOps {
				t.stopper.RequestStop()
			}
		}
	}
	if t.think > 0 {
		t.ctx.Work(t.think)
	}
}

// recordTimeout books one timed-out acquisition (post-warmup only, like
// every recorded statistic).
func (res *ThreadResult) recordTimeout(spec Spec, start, end int64) {
	if start < spec.WarmupNS {
		return
	}
	res.Timeouts++
	res.TimeoutLatency.Add(end - start)
}
