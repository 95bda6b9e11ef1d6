// Package alock is a pure-Go implementation of the ALock — the asymmetric
// lock primitive for RDMA systems from Baran, Nelson-Slivon, Tseng and
// Palmieri, "ALock: Asymmetric Lock Primitive for RDMA Systems" (SPAA '24)
// — together with the complete substrate the paper's evaluation runs on:
// a simulated RDMA fabric (one-sided verbs, queue-pair context caching,
// loopback congestion, local/remote atomicity asymmetry), the two
// competitor locks (RDMA spinlock and RDMA MCS queue lock), a distributed
// lock table, and the full benchmark harness that regenerates every table
// and figure of the paper.
//
// # The problem
//
// RDMA lets a thread read, write and CAS memory on a remote machine
// without involving the remote CPU — but a remote CAS is not atomic with
// local CAS or local writes on the same 8-byte word (the paper's Table 1).
// Systems historically worked around this by forcing local threads through
// the RDMA loopback path, which congests the NIC, or through RPC handlers,
// which forfeits one-sided performance. The ALock instead composes two
// budgeted MCS queue locks — one for the local cohort, one for the remote
// cohort — under a modified Peterson's lock, so that each memory word is
// only ever RMW'd by one class of operation while reads and writes (which
// are atomic across classes) carry the cross-cohort handshake.
//
// # Using the lock
//
// A Cluster is a set of nodes with RDMA-accessible memory and real
// goroutine threads (the real-time engine):
//
//	c := alock.NewCluster(alock.ClusterConfig{Nodes: 2})
//	table := c.NewLockTable(16)
//	c.Spawn(0, func(ctx alock.Ctx) {
//	    h := alock.NewHandle(ctx, alock.DefaultConfig())
//	    l := table.Ptr(3)
//	    h.Lock(l)
//	    // ... critical section ...
//	    h.Unlock(l)
//	})
//	c.Wait()
//
// Every lock algorithm in the repository implements one contract,
// api.Handle (a timed, mode-aware acquire returning the acquisition's state
// by value, and the matching release). NewTokenHandle layers explicit
// outcomes and fencing tokens on it; NewHandle wraps it in the blocking
// Lock/Unlock shape shown above. There is no other path to a lock.
//
// # Reproducing the paper
//
// Experiments run on the deterministic discrete-event engine instead of
// real goroutines; see RunExperiment and the cmd/figures binary, whose
// headlines table sets the measured ratios beside the paper's. The
// examples/ directory contains runnable walkthroughs, and README.md's
// "Paper figures" section names the scenarios behind every figure.
package alock

import (
	"math/rand"
	"time"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/harness"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/mem"
	"alock/internal/ptr"
	"alock/internal/rt"
)

// Ptr is an RDMA pointer: 4 bits of node ID plus 60 bits of offset within
// that node's RDMA-accessible memory (the paper's rdma_ptr, Section 6).
type Ptr = ptr.Ptr

// Null is the nil RDMA pointer.
const Null = ptr.Null

// Ctx is a thread's handle onto the cluster: the six memory operations of
// the paper's system model (local Read/Write/CAS, remote RRead/RWrite/
// RCAS), fences, allocation, timing and a deterministic random stream.
type Ctx = api.Ctx

// Locker is the blocking lock shape: Lock and Unlock bracket a critical
// section on the lock object at the given pointer. NewHandle returns one.
type Locker = api.Locker

// RWLocker is a Locker with an additional shared (read) acquire mode:
// RLock holders may overlap each other but never a Lock holder.
type RWLocker = api.RWLocker

// --- Acquisition-token API ---
//
// TokenLocker is the redesigned lock API: acquisitions are first-class
// values (Guards) carrying a fencing token minted at grant time, acquire
// attempts can carry deadlines and report explicit outcomes, and releases
// are validated against the fence so a crashed holder's late unlock is
// rejected instead of corrupting the lock.

// Mode selects the acquisition class (Exclusive or Shared).
type Mode = api.Mode

// Acquisition modes.
const (
	Exclusive = api.Exclusive
	Shared    = api.Shared
)

// Outcome is an acquisition attempt's result (Acquired, TimedOut, or
// AcquiredLate — granted, but past the requested deadline).
type Outcome = api.Outcome

// Acquisition outcomes.
const (
	Acquired     = api.Acquired
	TimedOut     = api.TimedOut
	AcquiredLate = api.AcquiredLate
)

// ReleaseOutcome is a release's result (Released or Fenced).
type ReleaseOutcome = api.ReleaseOutcome

// Release outcomes.
const (
	Released = api.Released
	Fenced   = api.Fenced
)

// AcquireOpts carries an optional engine-time deadline.
type AcquireOpts = api.AcquireOpts

// Guard is one live acquisition: lock, mode, fencing token.
type Guard = api.Guard

// TokenLocker is the acquisition-token lock interface.
type TokenLocker = api.TokenLocker

// FenceTable is a run's fencing authority: it mints monotonically
// increasing tokens at grant time and invalidates them at release or
// recovery. Share one table among all handles of a cluster; after the run,
// Drained reports guards never given back and releases of guards no longer
// held.
type FenceTable = locks.FenceTable

// NewFenceTable returns an empty fencing authority.
func NewFenceTable() *FenceTable { return locks.NewFenceTable() }

// NewTokenHandle returns a thread's ALock handle speaking the
// acquisition-token API against the shared fencing authority. Set
// cfg.Timed to enable acquire deadlines (a run-wide mode: every handle of
// the cluster must agree).
func NewTokenHandle(ctx Ctx, cfg Config, ft *FenceTable) TokenLocker {
	return locks.TokenHandleFor(&locks.ALockProvider{Cfg: cfg}, ctx, ft)
}

// Cohort identifies the paper's two access cohorts.
type Cohort = api.Cohort

// Cohort values: an access is local when the target word lives on the
// accessing thread's own node, remote otherwise.
const (
	CohortLocal  = api.CohortLocal
	CohortRemote = api.CohortRemote
)

// Config selects the ALock cohort budgets (Section 6.1).
type Config = core.Config

// DefaultConfig returns the paper's chosen budgets: local 5, remote 20.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewHandle allocates a thread's ALock descriptors on its own node and
// returns its blocking lock handle (api.Blocking over the ALock's
// api.Handle). The handle may be used with any number of ALocks, several
// held at once (a thread waits on at most one at a time); it is not safe
// for concurrent use by multiple threads.
func NewHandle(ctx Ctx, cfg Config) *api.Blocking {
	return api.NewBlocking(core.NewHandle(ctx, cfg))
}

// AllocLock allocates one zeroed, 64-byte ALock on the given node of a
// cluster. The zero state is an unlocked ALock.
func (c *Cluster) AllocLock(node int) Ptr { return c.space().AllocLine(node) }

// Classify reports which cohort a thread on threadNode joins when
// accessing the object at p.
func Classify(threadNode int, p Ptr) Cohort { return api.Classify(threadNode, p) }

// ClusterConfig configures a real-time cluster.
type ClusterConfig struct {
	// Nodes is the number of simulated machines (1..16; the pointer
	// format's 4-bit node ID is the paper's own limit).
	Nodes int
	// WordsPerNode is the capacity of each node's RDMA-accessible region
	// in 8-byte words (default 1 Mi words). It is an allocation limit, not
	// a footprint: backing memory is materialised a 32 KiB page at a time
	// as words are first touched, so the default does not cost 8 MiB of
	// resident memory per node.
	WordsPerNode int
	// Seed drives the per-thread random streams (default 1).
	Seed int64
	// TornRCAS enables Table 1 fidelity on the real-time engine: remote
	// CAS becomes read + window + write and is no longer atomic with
	// local operations. Leave it off unless you are demonstrating the
	// hazard; ALock itself is correct either way.
	TornRCAS bool
	// TornGap is the torn window width (default 200ns when TornRCAS).
	TornGap time.Duration
	// RemoteDelay, if set, spin-delays every remote verb for coarse
	// wall-clock realism in demos.
	RemoteDelay time.Duration
}

// Cluster is a running real-time cluster: nodes with RDMA-accessible
// memory and real goroutine threads.
type Cluster struct {
	eng   *rt.Engine
	nodes int
}

// NewCluster creates a cluster per cfg.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.WordsPerNode <= 0 {
		cfg.WordsPerNode = 1 << 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng := rt.New(cfg.Nodes, cfg.WordsPerNode, rt.Config{
		TornRCAS:    cfg.TornRCAS,
		TornGap:     cfg.TornGap,
		RemoteDelay: cfg.RemoteDelay,
	}, cfg.Seed)
	return &Cluster{eng: eng, nodes: cfg.Nodes}
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.nodes }

// Spawn starts a goroutine as a thread on the given node.
func (c *Cluster) Spawn(node int, fn func(Ctx)) { c.eng.Spawn(node, fn) }

// Stop asks all threads to wind down (ctx.Stopped() turns true).
func (c *Cluster) Stop() { c.eng.Stop() }

// Wait blocks until every spawned thread has returned.
func (c *Cluster) Wait() { c.eng.Wait() }

// ReadWord reads a word of cluster memory from outside any thread (for
// inspecting results after Wait).
func (c *Cluster) ReadWord(p Ptr) uint64 { return *c.space().WordAddr(p) }

func (c *Cluster) space() *mem.Space { return c.eng.Space() }

// LockTable is the paper's evaluation application: n locks partitioned
// equally across the cluster's nodes.
type LockTable struct {
	t *locktable.Table
}

// NewLockTable allocates a lock table of n locks over this cluster.
func (c *Cluster) NewLockTable(n int) *LockTable {
	return &LockTable{t: locktable.New(c.space(), n)}
}

// Len returns the number of locks.
func (lt *LockTable) Len() int { return lt.t.Len() }

// Ptr returns the pointer of lock i.
func (lt *LockTable) Ptr(i int) Ptr { return lt.t.Ptr(i) }

// HomeNode returns the node storing lock i.
func (lt *LockTable) HomeNode(i int) int { return lt.t.HomeNode(i) }

// Pick draws a lock index for a thread on `node` with the given locality
// percentage (the paper's workload generator).
func (lt *LockTable) Pick(rng *rand.Rand, node, localityPct int) int {
	return lt.t.Pick(rng, node, localityPct)
}

// --- Experiments (deterministic simulator) ---

// ExperimentConfig configures one simulated experiment; see
// internal/harness for field semantics. Algorithm is one of the eight
// registered names: alock, alock-nobudget, alock-symmetric, spinlock, mcs,
// rw-budget, rw-wpref, rw-queue.
type ExperimentConfig = harness.Config

// ExperimentResult is one experiment's measured outcome.
type ExperimentResult = harness.Result

// RunExperiment executes a lock-table experiment on the deterministic
// discrete-event engine and returns throughput, latency distribution and
// fabric statistics. Identical configs (including Seed) produce identical
// results.
func RunExperiment(cfg ExperimentConfig) (ExperimentResult, error) {
	return harness.Run(cfg)
}
