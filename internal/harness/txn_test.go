package harness

import (
	"strings"
	"testing"
	"time"

	"alock/internal/locks"
)

// diningConfig is a tiny dining-philosophers transaction run: every
// thread's operation takes two neighboring forks on the ring.
func diningConfig(algo, policy string) Config {
	c := Config{
		Algorithm:      algo,
		Nodes:          2,
		ThreadsPerNode: 3,
		Locks:          6,
		LocalityPct:    90,
		WarmupNS:       30_000,
		MeasureNS:      400_000,
		TxnLocks:       2,
		TxnRing:        true,
		TxnPolicy:      policy,
		AcquireTimeout: 15 * time.Microsecond,
		Seed:           1,
	}
	if policy == "timeout-backoff" {
		c.TxnBackoff = 5 * time.Microsecond
	}
	return c
}

// abortableAlgos have fully abortable timed paths (the unordered policies'
// requirement); blockingOnly can run transactions only under the ordered
// policy.
var (
	abortableAlgos = []string{"mcs", "rw-budget", "rw-queue", "rw-wpref", "spinlock"}
	blockingOnly   = []string{"alock", "alock-nobudget", "alock-symmetric"}
)

// TestDiningCompletesUnderEveryPolicy: the dining ring — the canonical
// deadlock construction — runs to completion with commits under every
// policy for every algorithm the policy supports, within the horizon (a
// livelock or deadlock would record nothing, or panic the simulator).
func TestDiningCompletesUnderEveryPolicy(t *testing.T) {
	for _, policy := range []string{"ordered", "timeout-backoff", "wait-die"} {
		algos := abortableAlgos
		if policy == "ordered" {
			algos = append(append([]string{}, abortableAlgos...), blockingOnly...)
		}
		for _, algo := range algos {
			t.Run(policy+"/"+algo, func(t *testing.T) {
				r, err := Run(diningConfig(algo, policy))
				if err != nil {
					t.Fatal(err)
				}
				if r.TxnCommits == 0 {
					t.Errorf("%s/%s: no transaction committed within the horizon", policy, algo)
				}
				if r.Ops != r.TxnCommits {
					t.Errorf("%s/%s: Ops %d != TxnCommits %d (each committed txn is one op)",
						policy, algo, r.Ops, r.TxnCommits)
				}
			})
		}
	}
}

// TestUnorderedPoliciesRejectNonAbortableAlgorithms: algorithms that
// cannot always abandon a timed acquire (committed cohort leaders) would
// genuinely deadlock inside a conflict cycle, so the harness must refuse to
// run them rather than wedge the simulation.
func TestUnorderedPoliciesRejectNonAbortableAlgorithms(t *testing.T) {
	for _, algo := range blockingOnly {
		for _, policy := range []string{"timeout-backoff", "wait-die"} {
			_, err := Run(diningConfig(algo, policy))
			if err == nil || !strings.Contains(err.Error(), "abortable") {
				t.Errorf("%s under %s: want abortable-timed-path rejection, got %v", algo, policy, err)
			}
		}
	}
	// The marker set matches expectations: exactly the abortable five.
	for _, algo := range abortableAlgos {
		prov, err := locks.ByName(algo, locks.Options{Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := prov.(locks.AbortableTimedProvider); !ok {
			t.Errorf("%s lost its AbortableTimedProvider marker", algo)
		}
	}
}

// TestTxnConfigValidation: harness-level transaction knob validation
// surfaces as errors, not panics.
func TestTxnConfigValidation(t *testing.T) {
	bad := diningConfig("mcs", "wait-die")
	bad.TxnLocks = 10
	bad.Locks = 4 // k exceeds the table
	if _, err := Run(bad); err == nil {
		t.Error("TxnLocks > Locks accepted")
	}
	bad = diningConfig("mcs", "wait-die")
	bad.AcquireTimeout = 0 // wait-die needs the wait quantum
	if _, err := Run(bad); err == nil {
		t.Error("wait-die without AcquireTimeout accepted")
	}
	bad = diningConfig("mcs", "nonsense")
	if _, err := Run(bad); err == nil {
		t.Error("unknown policy accepted")
	}
}
