package harness

import (
	"runtime"
	"strings"
	"testing"
)

// TestSteadyStateAllocsPerOp bounds what one more recorded operation costs
// in heap allocations: the same closed-loop config runs at two measure
// windows, and the difference in mallocs over the difference in recorded
// ops must stay under 0.05. The differential cancels engine, thread and
// handle set-up, so what is left is the per-acquisition path — lock
// algorithm, token layer, workload loop. Before per-acquisition state
// became a value (api.AcqState) every grant of a state-carrying algorithm
// boxed it into an interface: 0.94-1.0 mallocs per op here for alock, mcs,
// rw-queue and rw-budget; the stateless spinlock was already under 0.01.
func TestSteadyStateAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(algo string, measureNS int64) (mallocs uint64, ops int64) {
		cfg := Config{Algorithm: algo, Nodes: 16, ThreadsPerNode: 8, Locks: 100,
			LocalityPct: 90, WarmupNS: 200_000, MeasureNS: measureNS, Seed: 1}
		if strings.HasPrefix(algo, "rw-") {
			cfg.ReadPct = 50 // cover the shared path's state too
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return after.Mallocs - before.Mallocs, res.Ops
	}
	for _, algo := range []string{"alock", "mcs", "rw-queue", "rw-budget", "spinlock"} {
		t.Run(algo, func(t *testing.T) {
			m1, o1 := run(algo, 1_000_000)
			m2, o2 := run(algo, 4_000_000)
			if o2-o1 < 1000 {
				t.Fatalf("windows too close to measure: %d vs %d ops", o1, o2)
			}
			perOp := (float64(m2) - float64(m1)) / float64(o2-o1)
			t.Logf("%s: %d -> %d mallocs over %d -> %d ops: %.3f mallocs/op", algo, m1, m2, o1, o2, perOp)
			if perOp >= 0.05 {
				t.Errorf("%s: %.3f mallocs per recorded op, want < 0.05", algo, perOp)
			}
		})
	}
}
