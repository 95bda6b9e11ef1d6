// Locktable: the paper's evaluation application as a runnable demo.
//
// A 4-node cluster hosts a 64-entry distributed lock table. Each node runs
// four worker threads that pick locks with 90% locality — the regime the
// ALock is designed for — and perform lock/unlock operations for a fixed
// wall-clock duration. Remote verbs carry an injected 2µs delay so the
// local/remote asymmetry is visible in real time.
//
// The demo then prints per-algorithm wall-clock throughput for the ALock
// and for the loopback-based RDMA MCS competitor, echoing (coarsely, in
// real time rather than in the calibrated simulator) the Figure 5 result
// that ALock's shared-memory local path dominates when most operations are
// local.
//
//	go run ./examples/locktable
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"alock"
	"alock/internal/api"
	"alock/internal/locks"
)

const (
	nodes          = 4
	threadsPerNode = 4
	tableSize      = 64
	localityPct    = 90
	runFor         = 500 * time.Millisecond
)

func run(algorithm string) (opsPerSec float64) {
	cluster := alock.NewCluster(alock.ClusterConfig{
		Nodes:       nodes,
		RemoteDelay: 2 * time.Microsecond, // make verbs cost real time
	})
	table := cluster.NewLockTable(tableSize)

	var ops atomic.Int64
	for node := 0; node < nodes; node++ {
		for t := 0; t < threadsPerNode; t++ {
			cluster.Spawn(node, func(ctx alock.Ctx) {
				var h alock.Locker
				switch algorithm {
				case "alock":
					h = alock.NewHandle(ctx, alock.DefaultConfig())
				case "mcs":
					h = api.NewBlocking(locks.NewMCSHandle(ctx))
				}
				for !ctx.Stopped() {
					idx := table.Pick(ctx.Rand(), ctx.NodeID(), localityPct)
					l := table.Ptr(idx)
					h.Lock(l)
					// Tiny critical section: touch the lock's line.
					h.Unlock(l)
					ops.Add(1)
				}
			})
		}
	}
	start := time.Now() //lint:allow detrand real-time demo: wall-clock throughput is the point
	time.Sleep(runFor)
	cluster.Stop()
	cluster.Wait()
	return float64(ops.Load()) / time.Since(start).Seconds() //lint:allow detrand real-time demo: wall-clock throughput is the point
}

func main() {
	fmt.Printf("distributed lock table: %d nodes x %d threads, %d locks, %d%% locality\n",
		nodes, threadsPerNode, tableSize, localityPct)
	alockTput := run("alock")
	fmt.Printf("  alock: %10.0f ops/s  (local cohort uses shared memory — no loopback)\n", alockTput)
	mcsTput := run("mcs")
	fmt.Printf("  mcs  : %10.0f ops/s  (every access pays the RDMA/loopback delay)\n", mcsTput)
	if mcsTput > 0 {
		fmt.Printf("  alock/mcs = %.1fx\n", alockTput/mcsTput)
	}
}
