package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// svcBase is a small but non-trivial open-loop config: 3 nodes, 2 workers
// per shard, offered slightly over capacity so admission control engages.
func svcBase() Config {
	return Config{
		Algorithm:      "alock",
		Nodes:          3,
		ThreadsPerNode: 2,
		Locks:          100,
		ArrivalRate:    1_800_000,
		WarmupNS:       50_000,
		MeasureNS:      400_000,
		Seed:           7,
	}
}

// TestServiceConservation is the admission-control invariant: every
// offered arrival is either served or shed (queue overflow, deadline
// timeout, or still queued at shutdown) — nothing is lost or counted
// twice. Exercised with and without acquire deadlines.
func TestServiceConservation(t *testing.T) {
	for _, timeout := range []time.Duration{0, 3 * time.Microsecond} {
		cfg := svcBase()
		cfg.AcquireTimeout = timeout
		cfg.ZipfS = 1.5 // hot keys make acquire waits (and timeouts) real
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Svc
		if s == nil {
			t.Fatal("open-loop run returned no Svc stats")
		}
		if s.TotalOffered != s.TotalServed+s.TotalShed {
			t.Fatalf("timeout=%v: offered %d != served %d + shed %d",
				timeout, s.TotalOffered, s.TotalServed, s.TotalShed)
		}
		if s.TotalOffered == 0 || s.TotalServed == 0 {
			t.Fatalf("timeout=%v: degenerate run (offered=%d served=%d)",
				timeout, s.TotalOffered, s.TotalServed)
		}
		if timeout > 0 && s.Timeouts == 0 {
			t.Error("hot-key run with a 3us deadline recorded no timeouts")
		}
		if timeout == 0 && s.Timeouts != 0 {
			t.Errorf("deadline-free run recorded %d timeouts", s.Timeouts)
		}
	}
}

// TestServiceDecomposition: the queue-wait / acquire-wait / hold split
// must cover every served request and sum to the end-to-end latency.
func TestServiceDecomposition(t *testing.T) {
	cfg := svcBase()
	cfg.CSWork = 500 * time.Nanosecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Svc
	for name, count := range map[string]int64{
		"queue-wait":   s.QueueWait.Count,
		"acquire-wait": s.AcquireWait.Count,
		"hold":         s.HoldTime.Count,
		"e2e":          res.Latency.Count,
	} {
		if count != s.Served {
			t.Errorf("%s histogram covers %d of %d served requests", name, count, s.Served)
		}
	}
	// Means add exactly: each request's e2e is the sum of its three parts.
	sum := s.QueueWait.MeanNS + s.AcquireWait.MeanNS + s.HoldTime.MeanNS
	if e2e := res.Latency.MeanNS; sum < e2e*0.999 || sum > e2e*1.001 {
		t.Errorf("decomposition means %.1f != e2e mean %.1f", sum, e2e)
	}
	if s.HoldTime.MinNS < cfg.CSWork.Nanoseconds() {
		t.Errorf("hold min %dns below the %v critical section", s.HoldTime.MinNS, cfg.CSWork)
	}
	if res.Ops != s.Served || res.Throughput != s.GoodputOPS {
		t.Error("Result.Ops/Throughput must mirror served count and goodput")
	}
}

// TestServiceBitIdentity is the dedicated determinism diff for the svc
// path: one config, replayed across sweep parallelism 1 vs 8 and engine
// shards 1 vs 4, must produce byte-for-byte identical results. (The
// scenario executor test covers the whole svc/ family; this pins the exact
// widths the CI steps drive.)
func TestServiceBitIdentity(t *testing.T) {
	cfg := svcBase()
	cfg.ZipfS = 1.5
	cfg.BurstOn = 60 * time.Microsecond
	cfg.BurstOff = 40 * time.Microsecond
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		c := cfg
		c.EngineShards = shards
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got.Config.EngineShards = 0
		if !reflect.DeepEqual(base, got) {
			t.Errorf("EngineShards=%d diverged from serial run", shards)
		}
	}
}

// TestServiceValidation covers the open-loop config gates, including the
// bugfix: TargetOps with an open-loop run must be a clear error, not a
// silent fallback.
func TestServiceValidation(t *testing.T) {
	reject := func(name, wantSub string, mut func(*Config)) {
		t.Helper()
		cfg := svcBase()
		mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	reject("target-ops", "TargetOps", func(c *Config) { c.TargetOps = 1000 })
	reject("think", "ArrivalRate", func(c *Config) { c.Think = time.Microsecond })
	reject("txn", "plain lock/unlock", func(c *Config) { c.TxnLocks = 2 })
	reject("lease", "plain lock/unlock", func(c *Config) {
		c.LeaseProb = 0.1
		c.LeaseHold = time.Microsecond
	})
	reject("bad-placement", "placement", func(c *Config) { c.SvcPlacement = "nope" })
	reject("bad-admission", "admission", func(c *Config) { c.SvcAdmission = "lifo" })
	reject("svc-knobs-closed-loop", "ArrivalRate", func(c *Config) {
		c.ArrivalRate = 0
		c.SvcShards = 2
	})
	// The valid combinations still pass.
	cfg := svcBase()
	cfg.SvcPlacement = "home"
	cfg.SvcAdmission = "drop-head"
	cfg.SvcRebalance = true
	cfg.ReadPct = 50
	if _, err := Run(cfg); err != nil {
		t.Fatalf("valid svc config rejected: %v", err)
	}
}

// TestServiceDefaults: open-loop defaults fill in, and the defaults echo
// back through Result.Config.
func TestServiceDefaults(t *testing.T) {
	res, err := Run(svcBase())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Config
	if c.SvcShards != c.Nodes || c.SvcQueueCap != 64 || c.Clients != 1_000_000 {
		t.Errorf("defaults: shards=%d cap=%d clients=%d", c.SvcShards, c.SvcQueueCap, c.Clients)
	}
	if res.Svc.Placement != "hash" || res.Svc.Policy != "drop-tail" {
		t.Errorf("defaults: placement=%q policy=%q", res.Svc.Placement, res.Svc.Policy)
	}
	if len(res.Svc.ShardServed) != c.SvcShards {
		t.Errorf("shard balance has %d entries for %d shards", len(res.Svc.ShardServed), c.SvcShards)
	}
}
