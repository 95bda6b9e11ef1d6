package workload

import (
	"fmt"
	"testing"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

func TestTxnSpecValidate(t *testing.T) {
	good := []Spec{
		{LocalityPct: 90, TxnLocks: 2},
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyOrdered, AcquireTimeoutNS: 1000},
		{LocalityPct: 90, TxnLocks: 3, TxnPolicy: TxnPolicyBackoff, AcquireTimeoutNS: 1000, TxnBackoffNS: 500},
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyWaitDie, AcquireTimeoutNS: 1000},
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyWaitDie, AcquireTimeoutNS: 1000, TxnRing: true},
		{LocalityPct: 90, TxnLocks: 2, TxnOrder: TxnUnordered, TxnPolicy: TxnPolicyWaitDie, AcquireTimeoutNS: 1000},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{LocalityPct: 90, TxnLocks: 1},                              // k must be >= 2
		{LocalityPct: 90, TxnLocks: -1},                             //
		{LocalityPct: 90, TxnPolicy: TxnPolicyWaitDie},              // knobs without TxnLocks
		{LocalityPct: 90, TxnRing: true},                            //
		{LocalityPct: 90, TxnBackoffNS: 10},                         //
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: "zigzag"},         // unknown policy
		{LocalityPct: 90, TxnLocks: 2, TxnOrder: "sideways"},        // unknown order
		{LocalityPct: 90, TxnLocks: 2, TxnOrder: TxnUnordered},      // blocking unordered = deadlock
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyBackoff}, // needs deadline+backoff
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyBackoff, AcquireTimeoutNS: 1000},
		{LocalityPct: 90, TxnLocks: 2, TxnPolicy: TxnPolicyWaitDie},     // needs deadline
		{LocalityPct: 90, TxnLocks: 2, ReadPct: 10},                     // txns own the op mix
		{LocalityPct: 90, TxnLocks: 2, PairProb: 0.1},                   //
		{LocalityPct: 90, TxnLocks: 2, LeaseProb: 0.1, LeaseHoldNS: 10}, //
		{LocalityPct: 90, TxnLocks: 2, AbandonProb: 0.1, AbandonHoldNS: 10, AcquireTimeoutNS: 1000},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d accepted", i)
		}
	}
}

// auditLocker wraps a per-thread TokenLocker and tracks guard balance
// across all threads (the simulator serializes, so plain maps are safe):
// every granted guard must be released exactly once, whatever the policy's
// abort/retry behavior does in between.
type auditLocker struct {
	inner api.TokenLocker
	live  map[uint64]bool
	errs  *[]string
}

func (a auditLocker) Acquire(l ptr.Ptr, mode api.Mode, opt api.AcquireOpts) (api.Guard, api.Outcome) {
	g, out := a.inner.Acquire(l, mode, opt)
	if out != api.TimedOut {
		if a.live[g.Token] {
			*a.errs = append(*a.errs, fmt.Sprintf("token %d granted twice", g.Token))
		}
		a.live[g.Token] = true
	}
	return g, out
}

func (a auditLocker) Release(g api.Guard) api.ReleaseOutcome {
	if !a.live[g.Token] {
		*a.errs = append(*a.errs, fmt.Sprintf("token %d released without a live grant (double release or leak)", g.Token))
	}
	delete(a.live, g.Token)
	return a.inner.Release(g)
}

func (a auditLocker) Abandon(g api.Guard) {
	delete(a.live, g.Token)
	a.inner.Abandon(g)
}

// txnRig runs a contended dining-ring transaction workload and returns the
// per-thread results plus whatever the audit recorded. mkDie, when
// non-nil, builds the OnDie hook with access to the run's AgeTable before
// the threads start.
func txnRig(t *testing.T, spec Spec, threads int,
	mkDie func(*AgeTable) func(age, holder uint64)) (
	results []ThreadResult, leaked int, auditErrs []string) {

	t.Helper()
	e := sim.New(2, 1<<18, model.Uniform(10), 7)
	table := locktable.New(e.Space(), threads) // one fork per philosopher
	prov, err := locks.ByName("mcs", locks.Options{Timed: true})
	if err != nil {
		t.Fatal(err)
	}

	ft := locks.NewFenceTable()
	ages := NewAgeTable()
	var onDie func(age, holder uint64)
	if mkDie != nil {
		onDie = mkDie(ages)
	}
	prng := sim.NewPartitionedRNG(7)
	live := map[uint64]bool{}
	var errs []string
	results = make([]ThreadResult, threads)
	for i := 0; i < threads; i++ {
		slot := i
		e.Spawn(i%2, func(ctx api.Ctx) {
			h := auditLocker{
				inner: locks.TokenHandleFor(prov, ctx, ft),
				live:  live, errs: &errs,
			}
			env := Env{
				Backoff: prng.Stream(sim.SubsystemBackoff, slot),
				Ages:    ages,
				OnDie:   onDie,
			}
			results[slot] = RunEnv(ctx, h, table, spec, env, nil, 0, e)
		})
	}
	e.Run(600_000) // 0.6ms horizon
	return results, len(live), errs
}

// TestTxnGuardBalance: no guard is leaked across an abort and none is
// released twice — every Acquired guard is Released exactly once per retry
// round, under both unordered policies, with real aborts happening.
func TestTxnGuardBalance(t *testing.T) {
	for _, policy := range []string{TxnPolicyBackoff, TxnPolicyWaitDie} {
		t.Run(policy, func(t *testing.T) {
			spec := Spec{
				LocalityPct: 90,
				WarmupNS:    50_000,
				TxnLocks:    2,
				TxnRing:     true,
				TxnPolicy:   policy,
				// 8us holds against 6us deadlines: neighbors collide
				// constantly, so the policies abort and retry for real.
				CSWork:           8_000,
				AcquireTimeoutNS: 6_000,
			}
			if policy == TxnPolicyBackoff {
				spec.TxnBackoffNS = 4_000
			}
			results, leaked, errs := txnRig(t, spec, 6, nil)
			var commits, aborts int64
			for _, r := range results {
				commits += r.TxnCommits
				aborts += r.TxnAborts
			}
			if commits == 0 {
				t.Fatal("no transaction committed — the rig is broken")
			}
			if aborts == 0 {
				t.Fatal("no transaction aborted — the balance check is vacuous")
			}
			for _, e := range errs {
				t.Error(e)
			}
			if leaked != 0 {
				t.Errorf("%d guards still live after the run (leaked across aborts)", leaked)
			}
		})
	}
}

// TestWaitDieNeverAbortsOldest: every wait-die self-abort is by a
// transaction that is (a) younger than the holder it lost to and (b) not
// the oldest live transaction — the oldest always waits, which is what
// makes wait-die deadlock-free AND starvation-free.
func TestWaitDieNeverAbortsOldest(t *testing.T) {
	spec := Spec{
		LocalityPct:      90,
		WarmupNS:         0,
		TxnLocks:         2,
		TxnRing:          true,
		TxnPolicy:        TxnPolicyWaitDie,
		CSWork:           8_000,
		AcquireTimeoutNS: 6_000,
	}
	dies := 0
	violations := []string{}
	mkDie := func(ages *AgeTable) func(age, holderAge uint64) {
		return func(age, holderAge uint64) {
			dies++
			if age <= holderAge {
				violations = append(violations,
					fmt.Sprintf("txn age %d died against same-or-younger holder %d", age, holderAge))
			}
			if oldest, ok := ages.OldestLive(); ok && age == oldest {
				violations = append(violations,
					fmt.Sprintf("the oldest live transaction (age %d) aborted", age))
			}
		}
	}
	results, _, _ := txnRig(t, spec, 6, mkDie)
	var commits int64
	for _, r := range results {
		commits += r.TxnCommits
	}
	if commits == 0 {
		t.Fatal("no commits")
	}
	if dies == 0 {
		t.Fatal("no wait-die aborts happened — the invariant check is vacuous")
	}
	for _, v := range violations {
		t.Error(v)
	}
}
