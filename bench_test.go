// bench_test.go holds the micro-benchmarks that have no home in cmd/bench
// or benchmark/: wall-clock lock/unlock on the real-goroutine engine
// (internal/rt), the Appendix A model check, and the simulator's raw event
// rate. The figure sweeps are timed by cmd/bench and benchmark/, and their
// shapes are asserted by the internal/harness figure tests.
package alock_test

import (
	"runtime"
	"testing"

	"alock"
	"alock/internal/check"
	"alock/internal/harness"
)

// engineMeter accumulates simulator events and heap allocations across a
// benchmark's timed region and reports them in the same units cmd/bench
// writes to BENCH_*.json — events/sec of wall clock and allocs/event — so
// `go test -bench` output and the checked-in trajectory files are directly
// comparable.
type engineMeter struct {
	events uint64
	m0     runtime.MemStats
}

func startMeter() *engineMeter {
	m := &engineMeter{}
	runtime.ReadMemStats(&m.m0)
	return m
}

func (m *engineMeter) add(r harness.Result) { m.events += r.Events }

func (m *engineMeter) report(b *testing.B) {
	if m.events == 0 {
		return
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m.events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(m1.Mallocs-m.m0.Mallocs)/float64(m.events), "allocs/event")
}

// --- Appendix A ---

// BenchmarkAppendixATLACheck exhaustively model-checks internal/core's
// shipping ALock (3 processes, budget 1) per iteration: the properties of
// the paper's Appendix A spec, over the code every figure runs.
func BenchmarkAppendixATLACheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := check.Run(check.Config{Procs: 3, Budget: 1})
		if err != nil || !res.OK() {
			b.Fatalf("check failed: %v %v", res, err)
		}
	}
}

// --- Micro-benchmarks on the real-time engine ---

// BenchmarkALockUncontendedLocal measures a real (wall-clock) uncontended
// local lock/unlock pair on the real-time engine.
func BenchmarkALockUncontendedLocal(b *testing.B) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 1})
	l := c.AllocLock(0)
	done := make(chan struct{})
	c.Spawn(0, func(ctx alock.Ctx) {
		h := alock.NewHandle(ctx, alock.DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Lock(l)
			h.Unlock(l)
		}
		close(done)
	})
	<-done
	c.Wait()
}

// BenchmarkALockContendedLocal measures wall-clock throughput of 4 real
// goroutines contending on one ALock.
func BenchmarkALockContendedLocal(b *testing.B) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 1})
	l := c.AllocLock(0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ready := make(chan struct{})
		c.Spawn(0, func(ctx alock.Ctx) {
			h := alock.NewHandle(ctx, alock.DefaultConfig())
			for pb.Next() {
				h.Lock(l)
				h.Unlock(l)
			}
			close(ready)
		})
		<-ready
	})
	c.Wait()
}

// BenchmarkSimulatorEventRate measures raw simulator throughput in events
// per second (the cost of reproducing one virtual operation).
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg := harness.Config{
		Algorithm:      "alock",
		Nodes:          4,
		ThreadsPerNode: 4,
		Locks:          40,
		LocalityPct:    90,
		WarmupNS:       100_000,
		MeasureNS:      1_000_000,
		TargetOps:      5_000,
	}
	var events uint64
	var ops int64
	meter := startMeter()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
		ops += r.Ops
		meter.add(r)
	}
	meter.report(b)
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(events)/float64(ops), "events/op")
}
