package alock_test

import (
	"os"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname, for the harness's engine constructor

	"alock"
	"alock/internal/model"
	"alock/internal/sim"
)

// newEngine is the harness's engine constructor (the variable of the same
// name in internal/harness), which TestMain wraps as internal/scenario's
// tests do.
//
//go:linkname newEngine alock/internal/harness.newEngine
var newEngine func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine

// testMaxEvents caps the events every engine this package's experiments build
// dispatches, so a run that deadlocks fails in seconds — "exceeded N events —
// livelock?", or "thread N waits forever in SpinWhile on <word>" once every
// live thread is parked on a local word — instead of hanging until the go
// test timeout. The largest healthy run here (TestRunExperimentPublic) takes
// under 2^17 events.
const testMaxEvents = 1 << 22

func TestMain(m *testing.M) {
	build := newEngine
	newEngine = func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine {
		return build(nodes, wordsPerNode, p, seed, append(opts, sim.WithMaxEvents(testMaxEvents))...)
	}
	os.Exit(m.Run())
}

func TestClusterCounter(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 2})
	l := c.AllocLock(0)
	counter := 0
	const threads, iters = 6, 500
	for i := 0; i < threads; i++ {
		c.Spawn(i%2, func(ctx alock.Ctx) {
			h := alock.NewHandle(ctx, alock.DefaultConfig())
			for k := 0; k < iters; k++ {
				h.Lock(l)
				counter++ // protected solely by the ALock
				h.Unlock(l)
			}
		})
	}
	c.Wait()
	if counter != threads*iters {
		t.Fatalf("counter = %d, want %d", counter, threads*iters)
	}
}

func TestClusterDefaults(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{})
	if c.Nodes() != 1 {
		t.Fatalf("default nodes = %d", c.Nodes())
	}
	l := c.AllocLock(0)
	if l.IsNull() {
		t.Fatal("AllocLock returned null")
	}
	done := make(chan struct{})
	c.Spawn(0, func(ctx alock.Ctx) {
		defer close(done)
		h := alock.NewHandle(ctx, alock.DefaultConfig())
		h.Lock(l)
		h.Unlock(l)
	})
	c.Wait()
	<-done
}

func TestLockTablePartition(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 4})
	lt := c.NewLockTable(40)
	if lt.Len() != 40 {
		t.Fatalf("Len = %d", lt.Len())
	}
	counts := map[int]int{}
	for i := 0; i < lt.Len(); i++ {
		counts[lt.HomeNode(i)]++
		if lt.Ptr(i).NodeID() != lt.HomeNode(i) {
			t.Fatal("pointer/home mismatch")
		}
	}
	for n := 0; n < 4; n++ {
		if counts[n] != 10 {
			t.Fatalf("node %d owns %d locks, want 10", n, counts[n])
		}
	}
}

func TestClassify(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 2})
	l := c.AllocLock(1)
	if alock.Classify(1, l) != alock.CohortLocal {
		t.Error("home-node access should be local")
	}
	if alock.Classify(0, l) != alock.CohortRemote {
		t.Error("cross-node access should be remote")
	}
}

func TestStopWindsDownThreads(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 1})
	l := c.AllocLock(0)
	var ops atomic.Int64
	for i := 0; i < 4; i++ {
		c.Spawn(0, func(ctx alock.Ctx) {
			h := alock.NewHandle(ctx, alock.DefaultConfig())
			for !ctx.Stopped() {
				h.Lock(l)
				ops.Add(1)
				h.Unlock(l)
			}
		})
	}
	for ops.Load() < 1000 {
	}
	c.Stop()
	c.Wait()
	if ops.Load() < 1000 {
		t.Fatal("threads made no progress")
	}
}

func TestRunExperimentPublic(t *testing.T) {
	r, err := alock.RunExperiment(alock.ExperimentConfig{
		Algorithm:      "alock",
		Nodes:          2,
		ThreadsPerNode: 3,
		Locks:          10,
		LocalityPct:    80,
		WarmupNS:       50_000,
		MeasureNS:      500_000,
		TargetOps:      3_000,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Throughput <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
}

func TestRunExperimentRejectsBadConfig(t *testing.T) {
	_, err := alock.RunExperiment(alock.ExperimentConfig{
		Algorithm: "alock", Nodes: 99, ThreadsPerNode: 1, Locks: 1,
	})
	if err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestReadWordAfterWait(t *testing.T) {
	c := alock.NewCluster(alock.ClusterConfig{Nodes: 1})
	l := c.AllocLock(0)
	data := c.AllocLock(0) // reuse a line as plain data
	c.Spawn(0, func(ctx alock.Ctx) {
		h := alock.NewHandle(ctx, alock.DefaultConfig())
		h.Lock(l)
		ctx.Write(data, 1234)
		h.Unlock(l)
	})
	c.Wait()
	if got := c.ReadWord(data); got != 1234 {
		t.Fatalf("ReadWord = %d", got)
	}
}
