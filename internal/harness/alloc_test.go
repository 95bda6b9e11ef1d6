package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestSteadyStateAllocsPerOp bounds what one more recorded operation costs
// in heap allocations: the same config runs at two measure windows, and the
// difference in mallocs over the difference in recorded ops must stay under
// 0.05. The differential cancels engine, thread and handle set-up, so what
// is left is the per-operation path — event loop, lock algorithm, token
// layer, and the workload loop or the service's generators and workers.
// Before per-acquisition state became a value (api.AcqState) every grant of
// a state-carrying algorithm boxed it into an interface: 0.94-1.0 mallocs
// per op here for alock, mcs, rw-queue and rw-budget; the stateless
// spinlock was already under 0.01.
//
// The first rows are the plain closed loop per algorithm; the rest are one
// per scenario family, each reaching code the plain loop does not: the
// open-loop service (arrival generators and worker pools inside
// api.Ctx.WorkLoop, with and without a deadline), both unordered
// transaction policies, timed rw-queue descriptors, leases, abandoned
// holds and two-lock pairs.
func TestSteadyStateAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	algo := func(name string) Config {
		cfg := Config{Algorithm: name, Nodes: 16, ThreadsPerNode: 8, Locks: 100,
			LocalityPct: 90, WarmupNS: 200_000, Seed: 1}
		if name == "rw-queue" || name == "rw-budget" {
			cfg.ReadPct = 50 // cover the shared path's state too
		}
		return cfg
	}
	family := func(name string, mut func(*Config)) Config {
		cfg := Config{Algorithm: name, Nodes: 8, ThreadsPerNode: 4, Locks: 100,
			LocalityPct: 90, WarmupNS: 200_000, Seed: 1}
		mut(&cfg)
		return cfg
	}
	// The service's nominal capacity is ~250k ops/s per worker.
	const svcRate = 0.9 * 8 * 4 * 250_000
	rows := []struct {
		name string
		cfg  Config
	}{
		{"alock", algo("alock")},
		{"mcs", algo("mcs")},
		{"rw-queue", algo("rw-queue")},
		{"rw-budget", algo("rw-budget")},
		{"spinlock", algo("spinlock")},
		{"svc-open", family("mcs", func(c *Config) { c.ArrivalRate = svcRate })},
		{"svc-open-deadline", family("alock", func(c *Config) {
			// Hot keys make acquire waits, and so deadline misses, real.
			c.ArrivalRate, c.AcquireTimeout, c.ZipfS = svcRate, 3*time.Microsecond, 1.5
		})},
		{"txn-timeout-backoff", family("mcs", func(c *Config) {
			c.TxnLocks, c.TxnPolicy, c.TxnBackoff = 2, "timeout-backoff", 10*time.Microsecond
			c.AcquireTimeout = 20 * time.Microsecond
		})},
		{"txn-wait-die", family("spinlock", func(c *Config) {
			c.TxnLocks, c.TxnPolicy, c.TxnRing = 2, "wait-die", true
			c.AcquireTimeout = 20 * time.Microsecond
		})},
		{"rw-queue-timed", family("rw-queue", func(c *Config) {
			c.ReadPct, c.AcquireTimeout, c.Locks = 80, 20*time.Microsecond, 20
		})},
		{"lease", family("alock", func(c *Config) {
			c.LeaseProb, c.LeaseHold = 0.02, 25*time.Microsecond
		})},
		{"abandon", family("mcs", func(c *Config) {
			c.AcquireTimeout, c.AbandonProb, c.AbandonHold = 30*time.Microsecond, 0.005, 150*time.Microsecond
		})},
		{"pair", family("alock", func(c *Config) { c.PairProb = 0.1 })},
	}
	run := func(cfg Config, measureNS int64) (mallocs uint64, ops int64) {
		cfg.MeasureNS = measureNS
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Ops
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m1, o1 := run(row.cfg, 1_000_000)
			m2, o2 := run(row.cfg, 4_000_000)
			if o2-o1 < 1000 {
				t.Fatalf("windows too close to measure: %d vs %d ops", o1, o2)
			}
			perOp := (float64(m2) - float64(m1)) / float64(o2-o1)
			t.Logf("%s: %d -> %d mallocs over %d -> %d ops: %.4f mallocs/op", row.name, m1, m2, o1, o2, perOp)
			if perOp >= 0.05 {
				t.Errorf("%s: %.4f mallocs per recorded op, want < 0.05", row.name, perOp)
			}
		})
	}
}
