// bench_test.go holds the micro-benchmarks that have no home in cmd/bench
// or benchmark/: wall-clock lock/unlock on the real-goroutine engine
// (internal/rt) and the Appendix A model check. The figure sweeps are timed
// by benchmark/, the engine's layers by cmd/bench, and the sweeps' shapes are
// asserted by the internal/harness figure tests.
package alock_test

import (
	"testing"

	"alock"
	"alock/internal/check"
)

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
