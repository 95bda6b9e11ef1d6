// Package harness turns an experiment configuration into a measured run on
// the deterministic simulator: it builds the cluster, the distributed lock
// table, and the per-thread workloads, then aggregates throughput, latency
// and fabric statistics. Scale holds the preset sizes the registered
// scenarios (internal/scenario) expand the paper's figure grids at, and
// Table1 measures the paper's Table 1 atomicity matrix with adversarial
// probes.
package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"alock/internal/api"
	"alock/internal/cluster"
	"alock/internal/core"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/mem"
	"alock/internal/model"
	"alock/internal/sim"
	"alock/internal/stats"
	"alock/internal/workload"
)

// Config fully describes one experiment run. It is the one place an
// experiment axis is declared: the field, its doc comment and — through
// Validate — its rules. The CLIs bind flags straight into it, workloadSpec
// and serviceSpec hand each axis to the layer that implements it, and that
// layer's own Validate states the axis's range.
type Config struct {
	// Algorithm is a name accepted by locks.ByName.
	Algorithm string
	// Nodes and ThreadsPerNode define the cluster (paper: 5/10/20 nodes,
	// 1..12 threads per node).
	Nodes          int
	ThreadsPerNode int
	// Locks is the lock-table size (paper: 20/100/1000).
	Locks int
	// LocalityPct is the share of operations on node-local locks
	// (paper: 85/90/95/100).
	LocalityPct int
	// LocalBudget/RemoteBudget configure ALock variants (0,0 = paper
	// defaults 5/20).
	LocalBudget, RemoteBudget int64
	// ReadBudget/WriteBudget configure the reader/writer locks' phase
	// budgets (0,0 = locks.DefaultRWConfig, 16/4). Setting only one is an
	// error, surfaced by locks.ByName.
	ReadBudget, WriteBudget int64
	// Model is the cost model; zero value means model.CX3().
	Model model.Params
	// WarmupNS ops are executed but not recorded; MeasureNS bounds the
	// recorded window.
	WarmupNS  int64
	MeasureNS int64
	// TargetOps, if positive, ends the run once this many operations have
	// been recorded (keeps heavyweight sweeps affordable without biasing
	// throughput, which is computed over the recorded span).
	TargetOps int64
	// CSWork and Think shape each operation (both default to zero: the
	// paper measures bare lock+unlock pairs).
	CSWork time.Duration
	Think  time.Duration
	// ZipfS, when > 1, skews lock popularity with a Zipf(s) rank
	// distribution within each locality class (hot-key extension).
	ZipfS float64
	// BurstOn/BurstOff, when both positive, run each thread through on/off
	// arrival phases instead of open-throttle issue (bursty extension).
	BurstOn, BurstOff time.Duration
	// HomeSkewPct, when > 0, homes that percentage of the lock table on
	// node 0 instead of the paper's equal partition (skewed-home
	// extension).
	HomeSkewPct int
	// ReadPct is the percentage of operations acquiring the lock in shared
	// (read) mode; 0 reproduces the paper's exclusive-only workloads.
	// Algorithms without native shared mode degrade reads to exclusive.
	ReadPct int
	// LeaseProb/LeaseHold, when both set, turn that fraction of operations
	// into lease-style long holds of the given duration (failure/recovery
	// and ownership-lease extension). Leases model ownership, so a leased
	// operation always acquires exclusive mode regardless of ReadPct.
	LeaseProb float64
	LeaseHold time.Duration
	// AcquireTimeout, when > 0, bounds every acquisition: acquires still
	// waiting after this much engine time give up and are recorded as
	// timeouts. Setting it also switches the queued algorithms into the
	// abandonment-tolerant handoff protocol (locks.Options.Timed);
	// timeout-free configs keep the paper-exact paths and replay
	// bit-identically.
	AcquireTimeout time.Duration
	// AbandonProb/AbandonHold, when both set, make that fraction of
	// exclusive holds "crash": the lock wedges for AbandonHold, then
	// recovery reclaims it and the holder's late release is fenced off by
	// its stale token (failure-injection extension; pair ops are exempt).
	AbandonProb float64
	AbandonHold time.Duration
	// PairProb, when > 0, turns that fraction of operations into two-lock
	// transactions: both locks acquired in ascending table order, one
	// critical section, released in reverse order.
	PairProb float64
	// TxnLocks, when >= 2, turns every operation into a k-lock exclusive
	// transaction driven by the TxnPolicy deadlock policy (generalizing
	// PairProb). TxnLocks == 0 configs draw nothing new and replay
	// existing schedules bit-identically.
	TxnLocks int
	// TxnOrder is the per-transaction acquisition order: "ordered"
	// (ascending) or "unordered" (selection order; deadlock-prone, which
	// the policies resolve). Empty defaults to the policy's natural order.
	TxnOrder string
	// TxnPolicy is the deadlock policy: "ordered" (avoidance by lock
	// ordering), "timeout-backoff" (per-lock deadlines from
	// AcquireTimeout, LIFO rollback, randomized capped exponential
	// backoff), or "wait-die" (age = first fencing token; younger waiters
	// self-abort against older holders). The unordered policies need an
	// algorithm with a native timed path — filter and bakery block through
	// deadlines and would genuinely deadlock, so Validate rejects them.
	TxnPolicy string
	// TxnBackoff is the base backoff window for transaction retries
	// (required by timeout-backoff; optional die padding for wait-die).
	TxnBackoff time.Duration
	// TxnRing pins transactions to the dining-philosophers layout: thread
	// t takes locks (t+j) mod Locks instead of random selection.
	TxnRing bool
	// --- Lock-service layer (internal/cluster; open-loop extension) ---
	//
	// ArrivalRate, when > 0, switches the run to the open-loop lock
	// service: instead of closed-loop threads, per-shard Poisson arrival
	// generators offer this many operations per second in aggregate, and
	// per-shard worker pools (ThreadsPerNode workers each) drain bounded
	// admission queues. Open-loop runs support ReadPct, CSWork, ZipfS
	// (key popularity), BurstOn/Off, AcquireTimeout, HomeSkewPct and
	// EngineShards; the closed-loop-only knobs (TargetOps, Think,
	// leases, abandonment, pairs, transactions) are rejected and
	// LocalityPct is not consulted. A negative or NaN rate is an error,
	// not a closed-loop run.
	ArrivalRate float64 `json:",omitempty"`
	// Clients is the logical client population (arrival events carry a
	// client ID drawn from it); 0 defaults to one million.
	Clients int64 `json:",omitempty"`
	// SvcShards is the service shard count; 0 defaults to Nodes.
	SvcShards int `json:",omitempty"`
	// SvcPlacement maps keys to shards: "hash" (consistent hashing, the
	// default) or "home" (shard co-located with the lock's home node).
	SvcPlacement string `json:",omitempty"`
	// SvcQueueCap bounds each shard's admission queue; 0 defaults to 64,
	// and at most 1 Mi (cluster.Spec.QueueCap) is accepted.
	SvcQueueCap int `json:",omitempty"`
	// SvcAdmission is the overflow policy: "drop-tail" (default) or
	// "drop-head".
	SvcAdmission string `json:",omitempty"`
	// SvcRebalance, when true, runs the deterministic pre-run hot-key
	// rebalance: the hottest keys are re-assigned greedily to the least
	// loaded shards before the run starts.
	SvcRebalance bool `json:",omitempty"`
	// Seed makes the run reproducible.
	Seed int64
	// WordsPerNode is the capacity of each node's memory region in 8-byte
	// words (0 = 1 Mi words). It bounds what a run may allocate, not what
	// it costs: regions are demand-paged (internal/mem), so the host pays
	// for the 32 KiB pages a run touches, not 8 MiB per node.
	WordsPerNode int
	// EngineShards is the engine's worker count for the conservative
	// windowed executor: 0 is auto — the Run caller alone until the run's
	// windows carry enough events to pay for a barrier, then as many
	// workers as the process execution-slot budget grants (up to GOMAXPROCS
	// or the CPU count, whichever is lower) for as long as they pay — 1 the
	// Run caller alone, 2 or more that many workers (capped by the budget).
	// Schedules are bit-identical at any value. Wait-die configs,
	// whose age table is cross-thread Go state, run the serial executor at
	// any value — RunsWindowed reports the decision; a TargetOps run hands
	// over to the serial executor for the windows its stop could land in.
	EngineShards int `json:",omitempty"`
}

func (c Config) withDefaults() Config {
	// Only a genuinely zero-valued model means "use the default": a caller-
	// supplied model that merely leaves one field at zero (and will fail
	// its own validation) must not be silently swapped for CX3.
	if c.Model == (model.Params{}) {
		c.Model = model.CX3()
	}
	if c.WarmupNS == 0 {
		c.WarmupNS = 400_000 // 0.4 ms
	}
	if c.MeasureNS == 0 {
		c.MeasureNS = 4_000_000 // 4 ms
	}
	if c.WordsPerNode == 0 {
		c.WordsPerNode = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpenLoop() {
		if c.Clients == 0 {
			c.Clients = 1_000_000
		}
		if c.SvcShards == 0 {
			c.SvcShards = c.Nodes
		}
		if c.SvcQueueCap == 0 {
			c.SvcQueueCap = 64
		}
	}
	if c.TxnLocks >= 2 && c.TxnPolicy == workload.TxnPolicyBackoff && c.TxnBackoff == 0 {
		// A usable default: one deadline's worth of base backoff (doubling
		// up to 64x), so colliding transactions actually separate.
		c.TxnBackoff = c.AcquireTimeout
	}
	return c
}

// tailNS is how long a thread may run past the horizon before it next looks
// at the stop: a burst's off phase or a transaction's longest back-off, then
// an acquire's deadline, the longest hold (critical section, lease or
// abandoned hold) and the think time. Each term is clamped to [0,
// MaxIssueNS+1], so the sum cannot overflow; a negative duration is the
// workload gate's to reject.
func (c Config) tailNS() int64 {
	d := func(x time.Duration) int64 { return min(max(int64(x), 0), sim.MaxIssueNS+1) }
	pause := max(d(c.BurstOff), d(c.TxnBackoff)<<workload.TxnBackoffCapExp)
	return pause + d(c.AcquireTimeout) + max(d(c.CSWork), d(c.LeaseHold), d(c.AbandonHold)) + d(c.Think)
}

// OpenLoop reports whether the config runs the open-loop lock service
// (internal/cluster) instead of closed-loop workload threads.
func (c Config) OpenLoop() bool { return c.ArrivalRate > 0 }

// RunsWindowed reports whether Run executes the config on the windowed
// executor: every config but wait-die, whose age table is cross-thread Go
// state the engine must serialize. A TargetOps config runs windowed until
// its stop guard hands the last windows' worth of operations to the serial
// executor. The schedule is identical either way; only host time differs.
func (c Config) RunsWindowed() bool {
	return !workload.TxnConfigOf(workload.Spec{TxnLocks: c.TxnLocks, TxnPolicy: c.TxnPolicy}).NeedsAges
}

// engineOptions maps the config's engine axes onto sim options.
func (c Config) engineOptions() []sim.Option {
	if !c.RunsWindowed() {
		return nil
	}
	return []sim.Option{sim.WithShards(c.EngineShards)}
}

// newEngine builds every run's engine. It is a variable for tests alone:
// they swap it to build the serial executor — the plain serial dispatch
// loop, which no config value selects — or to keep the engines a sweep ran
// and read what Result does not carry.
var newEngine = sim.New

// Validate is the one configuration gate: it applies the defaults Run
// applies and resolves the config exactly as Run does, so a nil error
// guarantees Run fails on nothing the config says. Range rules live with
// the layer that owns the axis — workload.Spec.Validate (per-operation
// axes), cluster.Spec.Validate (service deployment), locks.ByName
// (algorithm and budgets), the placement and admission parsers,
// model.Params.Validate — and are reached through the same spec builders
// the run uses; only cluster-shape, window, engine and cross-mode rules
// are stated here.
func (c Config) Validate() error {
	_, err := c.withDefaults().check()
	return err
}

// plan is a checked config resolved into the pieces a run is built from.
// check is its only producer, which is what keeps Validate and Run in
// agreement.
type plan struct {
	cfg  Config
	prov locks.Provider
	work workload.Spec // closed loop: every thread's operation loop
	svc  cluster.Spec  // open loop: the service deployment
}

// workloadSpec maps the per-operation axes onto the closed-loop thread
// spec. Open-loop runs validate through it too: locality, key skew,
// bursts, read share, hold time and deadlines mean the same thing in both
// modes, so their range rules are stated once, in workload.Spec.Validate.
func (c Config) workloadSpec() workload.Spec {
	return workload.Spec{
		LocalityPct:      c.LocalityPct,
		CSWork:           c.CSWork,
		Think:            c.Think,
		WarmupNS:         c.WarmupNS,
		ZipfS:            c.ZipfS,
		BurstOnNS:        c.BurstOn.Nanoseconds(),
		BurstOffNS:       c.BurstOff.Nanoseconds(),
		ReadPct:          c.ReadPct,
		LeaseProb:        c.LeaseProb,
		LeaseHoldNS:      c.LeaseHold.Nanoseconds(),
		AcquireTimeoutNS: c.AcquireTimeout.Nanoseconds(),
		AbandonProb:      c.AbandonProb,
		AbandonHoldNS:    c.AbandonHold.Nanoseconds(),
		PairProb:         c.PairProb,
		TxnLocks:         c.TxnLocks,
		TxnOrder:         c.TxnOrder,
		TxnPolicy:        c.TxnPolicy,
		TxnBackoffNS:     c.TxnBackoff.Nanoseconds(),
		TxnRing:          c.TxnRing,
	}
}

// serviceSpec maps the open-loop axes onto the service deployment; the
// error is an unknown admission policy name.
func (c Config) serviceSpec() (cluster.Spec, error) {
	policy, err := cluster.ParsePolicy(c.SvcAdmission)
	return cluster.Spec{
		Shards:          c.SvcShards,
		WorkersPerShard: c.ThreadsPerNode,
		Clients:         c.Clients,
		RateOPS:         c.ArrivalRate,
		QueueCap:        c.SvcQueueCap,
		Policy:          policy,
		ReadPct:         c.ReadPct,
		CSWorkNS:        c.CSWork.Nanoseconds(),
		TimeoutNS:       c.AcquireTimeout.Nanoseconds(),
		WarmupNS:        c.WarmupNS,
		BurstOnNS:       c.BurstOn.Nanoseconds(),
		BurstOffNS:      c.BurstOff.Nanoseconds(),
	}, err
}

// check resolves a config that has its defaults applied, or says why it
// cannot run.
func (c Config) check() (plan, error) {
	fail := func(format string, args ...any) (plan, error) {
		return plan{}, fmt.Errorf("harness: "+format, args...)
	}
	if c.Nodes < 1 || c.Nodes > 16 {
		return fail("nodes %d out of range 1..16 (4-bit node IDs)", c.Nodes)
	}
	if c.Locks < 1 {
		return fail("lock table size %d", c.Locks)
	}
	if c.MeasureNS <= 0 {
		return fail("measurement window %d ns", c.MeasureNS)
	}
	// The run's horizon, WarmupNS + MeasureNS, and the longest wait a thread
	// may begin before it and end after it must be instants an event key
	// holds; the compares are written so that the sums cannot overflow.
	if tail := c.tailNS(); c.WarmupNS > sim.MaxIssueNS || c.MeasureNS > sim.MaxIssueNS-max(c.WarmupNS, 0) ||
		tail > sim.MaxIssueNS-max(c.WarmupNS, 0)-c.MeasureNS {
		return fail("warmup %d ns + measurement window %d ns + the longest wait begun before them, %d ns, past the engine's %d ns horizon",
			c.WarmupNS, c.MeasureNS, tail, int64(sim.MaxIssueNS))
	}
	if c.HomeSkewPct < 0 || c.HomeSkewPct > 100 {
		return fail("home skew %d%%", c.HomeSkewPct)
	}
	if c.WordsPerNode < 1 {
		return fail("words per node %d", c.WordsPerNode)
	}
	// Each lock is one line of its home node's region, laid out as prepare
	// lays it out, after the line every region reserves at offset 0.
	capLines := max(c.WordsPerNode, mem.WordsPerCacheLine)/mem.WordsPerCacheLine - 1
	perNode, home := make([]int, c.Nodes), c.homeFunc()
	for i := 0; i < c.Locks; i++ {
		n := home(i, c.Locks, c.Nodes)
		if perNode[n]++; perNode[n] > capLines {
			return fail("lock table does not fit: node %d homes more than the %d lock lines its %d-word region holds",
				n, capLines, c.WordsPerNode)
		}
	}
	if c.AbandonProb > 0 && c.AcquireTimeout <= 0 {
		// A wedged lock with unbounded waiters makes no progress at all;
		// the timeout is the recovery story's other half.
		return fail("AbandonProb requires AcquireTimeout so waiters can escape")
	}
	if c.TxnLocks > c.Locks {
		return fail("TxnLocks %d exceeds the lock table (%d)", c.TxnLocks, c.Locks)
	}
	if c.PairProb > 0 && c.Locks < 2 {
		// A one-lock table has no second lock to pair with: the run would
		// echo pair=N% and never pair.
		return fail("PairProb needs at least 2 locks (got %d)", c.Locks)
	}
	if c.EngineShards < 0 {
		return fail("negative engine shards %d", c.EngineShards)
	}
	if c.ArrivalRate != 0 && !c.OpenLoop() {
		// Negative or NaN: not an open-loop rate, and too deliberate to
		// run as the closed loop it would otherwise select.
		return fail("arrival rate %v ops/s (want > 0, or 0 for a closed-loop run)", c.ArrivalRate)
	}

	p := plan{cfg: c, work: c.workloadSpec()}
	threads := c.Nodes * c.ThreadsPerNode
	var err error
	if c.OpenLoop() {
		// TargetOps is a global countdown shared across every thread, and
		// its stop must land in the global order: the closed loop hands its
		// last windows to the serial executor for it, while the service
		// layer exists to run wide, so the combination is a config error,
		// not a fallback.
		if c.TargetOps > 0 {
			return fail("open-loop service runs (ArrivalRate > 0) cannot use TargetOps: " +
				"the global op countdown is cross-shard order-dependent; bound the run with MeasureNS instead")
		}
		if c.Think > 0 {
			return fail("Think is closed-loop pacing; open-loop load is set by ArrivalRate")
		}
		if c.LeaseProb > 0 || c.AbandonProb > 0 || c.PairProb > 0 || c.TxnLocks > 0 {
			return fail("open-loop service runs support plain lock/unlock operations only "+
				"(lease=%v abandon=%v pair=%v txn=%d)", c.LeaseProb, c.AbandonProb, c.PairProb, c.TxnLocks)
		}
		if p.svc, err = c.serviceSpec(); err != nil {
			return plan{}, err
		}
		if err = p.svc.Validate(); err != nil {
			return plan{}, err
		}
		// The name check only: the placement itself needs the lock table
		// and is built with it in runService (a hash ring of 64 points per
		// shard — microseconds against the run it precedes).
		if _, err = cluster.NewPlacement(c.SvcPlacement, c.SvcShards, nil); err != nil {
			return plan{}, err
		}
		// Thread IDs count each shard's arrival generator as well as its
		// workers, and the filter and bakery arrays are indexed by them.
		threads = c.SvcShards * (c.ThreadsPerNode + 1)
	} else {
		if c.ThreadsPerNode < 1 {
			return fail("threads per node %d", c.ThreadsPerNode)
		}
		if c.Clients != 0 || c.SvcShards != 0 || c.SvcPlacement != "" ||
			c.SvcQueueCap != 0 || c.SvcAdmission != "" || c.SvcRebalance {
			return fail("service knobs (clients/shards/placement/queue/admission/rebalance) " +
				"require an open-loop run: set ArrivalRate > 0")
		}
	}
	if err = p.work.Validate(); err != nil {
		return plan{}, err
	}

	p.prov, err = locks.ByName(c.Algorithm, locks.Options{
		ALockConfig: core.Config{
			LocalBudget:  c.LocalBudget,
			RemoteBudget: c.RemoteBudget,
		},
		RW: locks.RWConfig{
			ReadBudget:  c.ReadBudget,
			WriteBudget: c.WriteBudget,
		},
		Threads: threads,
		// Deadlines need the abandonment-tolerant handoff protocol; every
		// other config keeps the paper-exact paths (bit-identical replay).
		Timed: c.AcquireTimeout > 0,
	})
	if err != nil {
		return plan{}, err
	}
	// The unordered deadlock policies recover through real timeouts, so
	// every participant of a conflict cycle must be able to abandon its
	// acquire: algorithms whose deadlines are best-effort (filter, bakery
	// block straight through them) or whose waiters can commit while the
	// grant still depends on another holder (alock's cohort leaders) would
	// deadlock — reject them up front instead of wedging the simulation.
	if workload.TxnConfigOf(p.work).NeedsTimedPath {
		if _, ok := p.prov.(locks.AbortableTimedProvider); !ok {
			return fail("txn policy %q needs a fully abortable timed path, which algorithm %q lacks",
				c.TxnPolicy, c.Algorithm)
		}
	}
	if f, ok := p.prov.(locks.Footprint); ok {
		// Past its lock lines, a node's region takes the provider's side
		// state for each lock it homes (Prepare) and each thread's
		// descriptors (NewHandle's, then one set more per hold the thread
		// overlaps: a pair's second lock, a transaction's further ones).
		perThread, perLock := f.Lines()
		holds := max(1, c.TxnLocks)
		if c.PairProb > 0 {
			holds = max(holds, 2)
		}
		perThread *= holds
		workers := make([]int, c.Nodes) // open loop: ThreadsPerNode per shard homed
		for s := 0; s < c.SvcShards; s++ {
			workers[cluster.ShardNode(s, c.Nodes)] += c.ThreadsPerNode
		}
		for n, homed := range perNode {
			threads := c.ThreadsPerNode
			if c.OpenLoop() {
				threads = workers[n]
			}
			if need := homed*(1+perLock) + threads*perThread; need > capLines {
				return fail("node %d region does not fit the run: its %d words hold %d lines past the reserved one, "+
					"and %s needs %d (%d lock lines, %d per lock and %d per thread for %d threads)",
					n, c.WordsPerNode, capLines, c.Algorithm, need, homed, perLock, perThread, threads)
			}
		}
	}
	if err = c.Model.Validate(); err != nil {
		return plan{}, err
	}
	return p, nil
}

// NICTotals aggregates the fabric counters over all nodes.
type NICTotals struct {
	Verbs        int64
	QPCMisses    int64
	Slowdowns    int64
	MaxBacklogNS int64
	// DistinctQPs is the total number of queue-pair connections serviced
	// across all NICs (the system QP working set; Section 2's scalability
	// concern).
	DistinctQPs int64
}

// Result is the outcome of one run.
type Result struct {
	Config Config
	// Ops is the number of recorded (post-warmup) operations.
	Ops int64
	// SpanNS is the recorded span: from the warmup boundary (threads are
	// already in steady state there) to the last recorded completion for
	// full-window runs, and from the first to the last recorded completion
	// when TargetOps cuts the run short — an early stop leaves no idle tail
	// to amortize, so anchoring at the warmup boundary would understate
	// throughput for runs whose first completion lands late.
	SpanNS int64
	// Throughput is total recorded operations per second.
	Throughput float64
	// Latency summarizes the recorded per-operation latencies.
	Latency stats.Summary
	// ReadOps/WriteOps split Ops by acquire mode, and ReadLatency/
	// WriteLatency are the per-class latency digests. Exclusive-only runs
	// record everything as writes (ReadOps == 0, WriteLatency == Latency).
	ReadOps      int64
	WriteOps     int64
	ReadLatency  stats.Summary
	WriteLatency stats.Summary
	// Acquisition-outcome counters (token API; post-warmup, like Ops).
	// Timeouts counts acquires that gave up at their deadline and
	// TimeoutLatency is their acquire-latency-to-outcome digest; Abandons
	// counts simulated holder crashes; FencedReleases counts releases
	// rejected by a stale fencing token (late releases after timeout or
	// recovery); PairOps counts completed two-lock transactions.
	Timeouts       int64
	TimeoutLatency stats.Summary
	Abandons       int64
	FencedReleases int64
	PairOps        int64
	// LateAcquires counts grants that landed past their requested deadline
	// (best-effort timed paths: the filter/bakery blocking fallback, and
	// committed queued waiters whose grant won the timeout race late). The
	// operations completed and are in Ops; this is how often the deadline
	// was overshot rather than honored.
	LateAcquires int64
	// Transaction-layer outcomes (TxnLocks >= 2). TxnCommits counts
	// committed transactions; TxnAborts counts attempts the deadlock
	// policy abandoned (timeout-backoff give-ups, wait-die self-aborts);
	// TxnRetries counts re-attempts started after aborts. TxnRetryHist is
	// the retry-count distribution over commits and CommitLatency the
	// per-commit start-to-release latency distribution.
	TxnCommits    int64
	TxnAborts     int64
	TxnRetries    int64
	TxnRetryHist  stats.Summary
	CommitLatency stats.Summary
	// CDF is the empirical latency distribution (Figure 6).
	CDF []stats.Point
	// NIC aggregates fabric counters (whole run, including warmup).
	NIC NICTotals
	// Lock carries ALock-internal counters when the algorithm exposes
	// them (passes, reacquires, cohort mix).
	Lock core.Stats
	// Events is the number of simulator events processed.
	Events uint64
	// Svc carries the lock-service metrics of open-loop runs (offered
	// vs. goodput, shed counts, queue-wait/acquire-wait/hold
	// decomposition); nil for closed-loop runs.
	Svc *SvcStats `json:",omitempty"`
}

// Run executes one experiment. The closed loop and the open-loop service
// share everything except who issues operations: a fixed thread population
// looping as fast as the locks allow, or per-shard Poisson generators
// offering a configured load to bounded worker pools (service.go).
func Run(cfg Config) (Result, error) {
	p, err := cfg.withDefaults().check()
	if err != nil {
		return Result{}, err
	}
	s := p.prepare()
	var res Result
	if p.cfg.OpenLoop() {
		res, err = s.runService()
	} else {
		res = s.runClosedLoop()
	}
	if err == nil {
		// Every thread has exited, so a token still live is a guard its
		// holder neither released nor abandoned.
		if err = s.ft.Drained(); err != nil {
			return Result{}, fmt.Errorf("harness: %w", err)
		}
	}
	return res, err
}

// simulation is one prepared run: the engine, the lock table laid out and
// registered with the provider, and the fencing authority.
type simulation struct {
	plan
	e     *sim.Engine
	table *locktable.Table
	// One fencing authority per run: grant order (hence every token) is
	// part of the deterministic schedule. It lives outside simulated
	// memory, so the token layer costs no simulated operations.
	ft *locks.FenceTable
}

// homeFunc is the lock table layout the config asks for.
func (c Config) homeFunc() locktable.HomeFunc {
	if c.HomeSkewPct > 0 {
		return locktable.SkewedHome(0, c.HomeSkewPct)
	}
	return locktable.RoundRobinHome
}

func (p plan) prepare() *simulation {
	cfg := p.cfg
	e := newEngine(cfg.Nodes, cfg.WordsPerNode, cfg.Model, cfg.Seed, cfg.engineOptions()...)
	table := locktable.NewWithLayout(e.Space(), cfg.Locks, cfg.homeFunc())
	p.prov.Prepare(e.Space(), table.All())
	return &simulation{plan: p, e: e, table: table, ft: locks.NewFenceTable()}
}

// finish fills in what every run reports the same way once res.Ops is
// known: the echoed config, the recorded span and throughput, the fabric
// totals and the lock-internal counters.
func (s *simulation) finish(res *Result, firstRec, lastRec int64, cutShort bool) {
	res.Config = s.cfg
	res.Events = s.e.Events()
	res.SpanNS = recordedSpan(firstRec, lastRec, s.cfg.WarmupNS, cutShort)
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.SpanNS) / 1e9)
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		st := s.e.NIC(n).Stats()
		res.NIC.Verbs += st.Verbs
		res.NIC.QPCMisses += st.QPCMisses
		res.NIC.Slowdowns += st.Slowdowns
		res.NIC.DistinctQPs += st.DistinctQPs
		if st.MaxBacklogNS > res.NIC.MaxBacklogNS {
			res.NIC.MaxBacklogNS = st.MaxBacklogNS
		}
	}
	if agg, ok := s.prov.(locks.StatsAggregator); ok {
		res.Lock = agg.AggregateStats()
	}
}

// runClosedLoop spawns Nodes x ThreadsPerNode workload threads and merges
// their per-thread results.
func (s *simulation) runClosedLoop() Result {
	cfg, e := s.cfg, s.e
	txn := workload.TxnConfigOf(s.work)
	var ages *workload.AgeTable
	if txn.NeedsAges {
		ages = workload.NewAgeTable()
	}
	prng := sim.NewPartitionedRNG(cfg.Seed)
	results := make([]workload.ThreadResult, cfg.Nodes*cfg.ThreadsPerNode)
	// The shared op counter exists only for TargetOps early stop, so runs
	// that never read it are not handed it.
	var opsDone atomic.Int64
	var opsPtr *atomic.Int64
	if cfg.TargetOps > 0 {
		opsPtr = &opsDone
		e.SetStopGuard(stopGuard(cfg, &opsDone))
	}
	idx := 0
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			slot := idx
			node := n
			idx++
			e.Spawn(node, func(ctx api.Ctx) {
				h := locks.TokenHandleFor(s.prov, ctx, s.ft)
				env := workload.Env{Ages: ages}
				if txn.NeedsBackoff {
					env.Backoff = prng.Stream(sim.SubsystemBackoff, slot)
				}
				results[slot] = workload.RunEnv(ctx, h, s.table, s.work, env,
					opsPtr, cfg.TargetOps, e)
			})
		}
	}
	e.Run(cfg.WarmupNS + cfg.MeasureNS)

	var res Result
	var hist, readHist, writeHist, timeoutHist stats.Hist
	var retryHist, commitHist stats.Hist
	var firstRec, lastRec int64
	for i := range results {
		r := &results[i]
		res.Ops += r.Ops
		res.ReadOps += r.ReadOps
		res.WriteOps += r.WriteOps
		res.Timeouts += r.Timeouts
		res.Abandons += r.Abandons
		res.FencedReleases += r.FencedReleases
		res.LateAcquires += r.LateAcquires
		res.PairOps += r.PairOps
		res.TxnCommits += r.TxnCommits
		res.TxnAborts += r.TxnAborts
		res.TxnRetries += r.TxnRetries
		hist.Merge(&r.Latency)
		readHist.Merge(&r.ReadLatency)
		writeHist.Merge(&r.WriteLatency)
		timeoutHist.Merge(&r.TimeoutLatency)
		retryHist.Merge(&r.TxnRetryHist)
		commitHist.Merge(&r.CommitLatency)
		if r.Ops > 0 {
			if firstRec == 0 || r.FirstRecNS < firstRec {
				firstRec = r.FirstRecNS
			}
			if r.LastRecNS > lastRec {
				lastRec = r.LastRecNS
			}
		}
	}
	res.Latency = hist.Summarize()
	res.ReadLatency = readHist.Summarize()
	res.WriteLatency = writeHist.Summarize()
	res.TimeoutLatency = timeoutHist.Summarize()
	res.TxnRetryHist = retryHist.Summarize()
	res.CommitLatency = commitHist.Summarize()
	res.CDF = hist.CDF()
	s.finish(&res, firstRec, lastRec, cfg.TargetOps > 0 && res.Ops >= cfg.TargetOps)
	return res
}

// stopGuard keeps a TargetOps run's stop out of parallel windows: asked at a
// window barrier, it says whether the countdown could reach the target inside
// a window of the given length. Every recorded operation issues at least one
// memory operation between the two Now() readings it is timed by, so one
// thread's recorded ends are at least Model.MinOpNS apart and it ends at most
// window/MinOpNS + 1 of them in the window; while more than that many per
// thread remain, no stop can land there. The first window that could take the
// stop goes to the serial executor with the rest of the run — on the fig5
// sweep, 5 % of its events.
func stopGuard(cfg Config, opsDone *atomic.Int64) func(window int64) bool {
	threads := int64(cfg.Nodes * cfg.ThreadsPerNode)
	minOp := cfg.Model.MinOpNS()
	return func(window int64) bool {
		return cfg.TargetOps-opsDone.Load() <= threads*(window/minOp+1)
	}
}

// recordedSpan picks the span the throughput is computed over. A run that
// fills its whole measurement window is anchored at the warmup boundary:
// the threads were already in steady state, so the interval up to the first
// recorded completion is working time, not idle time. A run actually cut
// short by TargetOps (cutShort: the target was set AND reached — a target
// the window expired under leaves an ordinary full-window run) instead
// spans first to last recorded completion — it ends mid-flight, and
// anchoring at the warmup boundary would charge a late-starting first
// completion (long think time, a slow first operation) against a window
// the run never used.
func recordedSpan(firstRec, lastRec, warmupNS int64, cutShort bool) int64 {
	span := lastRec - warmupNS
	if cutShort && firstRec > 0 {
		span = lastRec - firstRec
	}
	if span <= 0 {
		span = 1
	}
	return span
}
