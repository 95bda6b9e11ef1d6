// Package cluster layers a sharded lock *service* over the deterministic
// engine: an open-loop client population offering Poisson traffic to a set
// of service shards, each shard a bounded admission queue drained by a
// fixed worker pool that executes operations against the shared lock table
// through the token API. It turns "N closed-loop threads on one table"
// into "millions of logical clients on a sharded service" — clients are
// arrival events carrying a client ID, so the population costs
// O(outstanding requests), never O(clients).
//
// Determinism under the windowed parallel executor rests on two choices:
//
//   - Poisson splitting. Instead of one global arrival process routed to
//     shards (a cross-shard sequence), each shard runs its own generator
//     thinned to rate λ·W_s, where W_s is the shard's share of the key
//     popularity weight. Superposing independent Poisson processes of
//     rates λ·W_s is statistically identical to routing one rate-λ process
//     by key popularity — but no shard's arrival sequence ever depends on
//     another shard's draws. Each generator owns a sim.SubsystemArrival
//     stream keyed by shard ID.
//
//   - Shard-local Go state. A shard's queue, counters and histograms are
//     touched only by its generator and workers, all spawned on the
//     shard's home node. One engine shard serializes the threads of one
//     node in every execution mode, so the service needs no locks and
//     replays bit-identically at any -parallel or -engine-shards width.
//
// Lock state itself lives in simulated memory, where cross-node access is
// the engine's job; workers reach locks homed anywhere through ordinary
// (costed) local or RDMA operations.
package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/sim"
	"alock/internal/stats"
)

// pollNS is the idle worker's re-check quantum. A constant (never drawn
// from randomness) so service order is a pure function of the schedule.
const pollNS = 500

// maxQueueCap bounds Spec.QueueCap: each shard allocates its whole admission
// ring (24 B a request) when the service is installed, 24 MiB at the bound.
const maxQueueCap = 1 << 20

// Policy selects what a full admission queue does with overflow.
type Policy uint8

const (
	// DropTail sheds the incoming request; the queue keeps its oldest
	// work (FIFO fairness, but queue-wait grows to the cap).
	DropTail Policy = iota
	// DropHead evicts the oldest queued request and admits the newcomer
	// (freshest-first under overload; bounded staleness).
	DropHead
)

// ParsePolicy maps a CLI/config name to a Policy. The empty string is
// DropTail, the default.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "drop-tail":
		return DropTail, nil
	case "drop-head":
		return DropHead, nil
	}
	return 0, fmt.Errorf("cluster: unknown admission policy %q (want drop-tail or drop-head)", name)
}

// String names the policy as ParsePolicy accepts it.
func (p Policy) String() string {
	if p == DropHead {
		return "drop-head"
	}
	return "drop-tail"
}

// Spec configures one lock-service deployment.
type Spec struct {
	// Shards is the number of service shards; shard s is homed on node
	// s % nodes, so shards beyond the node count stack round-robin.
	Shards int
	// WorkersPerShard is each shard's worker-pool size.
	WorkersPerShard int
	// Clients is the logical client population; every arrival carries a
	// client ID drawn uniformly from [0, Clients).
	Clients int64
	// RateOPS is the aggregate offered load in operations per second,
	// split across shards by key-popularity weight (Poisson splitting).
	RateOPS float64
	// QueueCap bounds each shard's admission queue (1 to 1 Mi requests).
	QueueCap int
	// Policy is the overflow policy of a full queue.
	Policy Policy
	// ReadPct is the percentage of arrivals requesting shared mode.
	ReadPct int
	// CSWorkNS is the critical-section body each served request executes.
	CSWorkNS int64
	// TimeoutNS, if positive, bounds each acquisition from dequeue; a
	// timed-out request counts as shed (service-level rejection) and in
	// the Timeouts counter.
	TimeoutNS int64
	// WarmupNS gates recording: only requests ARRIVING at or after the
	// warmup boundary enter the recorded counters and histograms. The
	// whole-run counters (Offered/Served/Shed) ignore it — they exist for
	// the conservation invariant.
	WarmupNS int64
	// BurstOnNS/BurstOffNS, when both positive, run each generator
	// through on/off phases with the same semantics as the closed-loop
	// workload's burst fields: arrivals flow during on-phases, pause
	// during off-phases, with the first phase boundary staggered per
	// shard from its arrival stream.
	BurstOnNS  int64
	BurstOffNS int64
}

// Validate rejects deployments the service cannot represent.
func (s Spec) Validate() error {
	if s.Shards < 1 {
		return fmt.Errorf("cluster: %d shards", s.Shards)
	}
	if s.WorkersPerShard < 1 {
		return fmt.Errorf("cluster: %d workers per shard", s.WorkersPerShard)
	}
	if s.Clients < 1 {
		return fmt.Errorf("cluster: client population %d", s.Clients)
	}
	if !(s.RateOPS > 0) {
		return fmt.Errorf("cluster: arrival rate %v ops/s", s.RateOPS)
	}
	if s.QueueCap < 1 || s.QueueCap > maxQueueCap {
		return fmt.Errorf("cluster: queue capacity %d (want 1 to %d)", s.QueueCap, maxQueueCap)
	}
	if s.ReadPct < 0 || s.ReadPct > 100 {
		return fmt.Errorf("cluster: read share %d%%", s.ReadPct)
	}
	if s.CSWorkNS < 0 || s.TimeoutNS < 0 || s.WarmupNS < 0 {
		return fmt.Errorf("cluster: negative duration (cs=%d timeout=%d warmup=%d)",
			s.CSWorkNS, s.TimeoutNS, s.WarmupNS)
	}
	if s.BurstOnNS < 0 || s.BurstOffNS < 0 || (s.BurstOnNS > 0) != (s.BurstOffNS > 0) {
		return fmt.Errorf("cluster: burst phases need both on and off (on=%d off=%d)",
			s.BurstOnNS, s.BurstOffNS)
	}
	return nil
}

// request is one in-flight client operation — the entire footprint of one
// logical client.
type request struct {
	client   int64
	key      int32
	mode     api.Mode
	arriveNS int64
}

// shard is one service shard: its key partition, admission queue and
// metric state. Everything here is touched only by threads on sh.node.
type shard struct {
	id   int
	node int
	keys []int32         // lock indices this shard serves, ascending
	pick *stats.Weighted // conditional popularity over keys

	meanGapNS float64 // thinned interarrival mean (1e9 / (λ · W_s))

	// queue is the admission queue: a ring of exactly QueueCap requests
	// holding n of them, the oldest at head.
	queue   []request
	head, n int

	// Whole-run conservation counters: offered == served + shed always
	// holds after Finalize (timeouts are a subset of shed).
	offered, served, shed, timeouts int64
	// Recorded (arrival >= WarmupNS) counterparts and histograms.
	recOffered, recServed, recShed, recTimeouts int64
	recReads, recWrites                         int64
	firstRecNS, lastRecNS                       int64
	maxQueueLen                                 int
	queueWait, acquireWait, hold, e2e           stats.Hist
	readE2E, writeE2E                           stats.Hist
}

// newShard builds a shard with its admission ring allocated.
func newShard(id, node int, keys []int32, queueCap int) *shard {
	return &shard{id: id, node: node, keys: keys, queue: make([]request, queueCap)}
}

func (sh *shard) qlen() int { return sh.n }

// push appends r at the tail; the caller has made room (admit).
func (sh *shard) push(r request) {
	i := sh.head + sh.n
	if i >= len(sh.queue) {
		i -= len(sh.queue)
	}
	sh.queue[i] = r
	sh.n++
	if sh.n > sh.maxQueueLen {
		sh.maxQueueLen = sh.n
	}
}

func (sh *shard) pop() (request, bool) {
	if sh.n == 0 {
		return request{}, false
	}
	r := sh.queue[sh.head]
	sh.head++
	if sh.head == len(sh.queue) {
		sh.head = 0
	}
	sh.n--
	return r, true
}

// Cluster is one installed lock-service deployment.
type Cluster struct {
	spec  Spec
	table *locktable.Table
	sh    []*shard
	swept bool
}

// Install partitions the lock table's keys across spec.Shards by the given
// placement, weights each shard by its share of the key-popularity vector,
// and spawns every shard's generator and worker threads on the shard's
// home node. weights must have one non-negative entry per lock (see
// KeyWeights); a shard whose keys carry zero total weight receives no
// generator (its thinned rate is zero) but keeps its workers.
func Install(e *sim.Engine, table *locktable.Table, prov locks.Provider,
	ft *locks.FenceTable, place Placement, weights []float64, spec Spec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != table.Len() {
		return nil, fmt.Errorf("cluster: %d weights for %d locks", len(weights), table.Len())
	}

	perKeys := make([][]int32, spec.Shards)
	perW := make([][]float64, spec.Shards)
	shardW := make([]float64, spec.Shards)
	for k := 0; k < table.Len(); k++ {
		s := place.Shard(k)
		if s < 0 || s >= spec.Shards {
			return nil, fmt.Errorf("cluster: placement %s sent key %d to shard %d of %d",
				place.Name(), k, s, spec.Shards)
		}
		perKeys[s] = append(perKeys[s], int32(k))
		perW[s] = append(perW[s], weights[k])
		if weights[k] > 0 {
			shardW[s] += weights[k]
		}
	}

	nodes := table.Nodes()
	c := &Cluster{spec: spec, table: table, sh: make([]*shard, spec.Shards)}
	prng := e.RNG()
	for s := 0; s < spec.Shards; s++ {
		sh := newShard(s, s%nodes, perKeys[s], spec.QueueCap)
		if shardW[s] > 0 {
			sh.pick = stats.NewWeighted(perW[s])
			sh.meanGapNS = 1e9 / (spec.RateOPS * shardW[s])
		}
		c.sh[s] = sh
		if sh.pick != nil {
			rng := prng.Stream(sim.SubsystemArrival, s)
			e.Spawn(sh.node, func(ctx api.Ctx) { c.generate(ctx, sh, rng) })
		}
		for w := 0; w < spec.WorkersPerShard; w++ {
			e.Spawn(sh.node, func(ctx api.Ctx) { c.serve(ctx, sh, prov, ft) })
		}
	}
	return c, nil
}

// Generator states: what the arrival process is waiting for between two calls
// of its WorkLoop function.
const (
	genStart uint8 = iota // nothing yet
	genGap                // an interarrival gap: the next call is the arrival
	genOff                // a burst off-phase
)

// generate is one shard's open-loop arrival process: exponential gaps at
// the shard's thinned rate, each arrival carrying a fresh client ID, a
// key from the shard's conditional popularity and an acquire mode. All
// randomness comes from the shard's own SubsystemArrival stream.
//
// The process only ever waits and then touches the shard's Go state, so it is
// one api.Ctx.WorkLoop: each call of the function below finishes the wait that
// has just elapsed and starts the next, and the generator's thread runs again
// only when the run stops. The draws keep the order of the loop written out:
// gap, then client, key and mode once the gap has elapsed.
func (c *Cluster) generate(ctx api.Ctx, sh *shard, rng *rand.Rand) {
	spec := c.spec
	var phaseEnd int64
	if spec.BurstOnNS > 0 {
		// Stagger the first boundary so shards don't phase-lock, exactly
		// as the closed-loop workload staggers threads.
		phaseEnd = ctx.Now() + 1 + rng.Int63n(spec.BurstOnNS)
	}
	waiting := genStart
	ctx.WorkLoop(func(now int64, stopped bool) (time.Duration, bool) {
		if stopped {
			return 0, false
		}
		switch waiting {
		case genOff:
			phaseEnd = now + spec.BurstOnNS
		case genGap:
			r := request{
				client:   rng.Int63n(spec.Clients),
				key:      sh.keys[sh.pick.Pick(rng)],
				arriveNS: now,
			}
			if spec.ReadPct > 0 && rng.Intn(100) < spec.ReadPct {
				r.mode = api.Shared
			}
			c.admit(sh, r)
		}
		if spec.BurstOnNS > 0 && now >= phaseEnd {
			waiting = genOff
			return time.Duration(spec.BurstOffNS), true
		}
		waiting = genGap
		return time.Duration(stats.ExpGapNS(rng, sh.meanGapNS)), true
	})
}

// admit applies the shard's admission control to one arrival.
func (c *Cluster) admit(sh *shard, r request) {
	sh.offered++
	if r.arriveNS >= c.spec.WarmupNS {
		sh.recOffered++
	}
	if sh.qlen() >= c.spec.QueueCap {
		if c.spec.Policy == DropTail {
			c.shedOne(sh, r)
			return
		}
		if old, ok := sh.pop(); ok {
			c.shedOne(sh, old)
		}
	}
	sh.push(r)
}

func (c *Cluster) shedOne(sh *shard, r request) {
	sh.shed++
	if r.arriveNS >= c.spec.WarmupNS {
		sh.recShed++
	}
}

// serve is one worker: drain the shard queue FIFO, executing each request
// against the lock table through the token API. Workers draw no
// randomness — service order is a pure function of the schedule.
func (c *Cluster) serve(ctx api.Ctx, sh *shard, prov locks.Provider, ft *locks.FenceTable) {
	spec := c.spec
	h := locks.TokenHandleFor(prov, ctx, ft)
	cs := time.Duration(spec.CSWorkNS)
	// An idle worker looks at the queue every pollNS; the look is Go state
	// only, so the wait is one WorkLoop and costs the worker's thread nothing
	// until there is a request to take or the run stops.
	idle := func(_ int64, stopped bool) (time.Duration, bool) {
		return pollNS * time.Nanosecond, !stopped && sh.qlen() == 0
	}
	for {
		ctx.WorkLoop(idle)
		if ctx.Stopped() {
			return
		}
		r, _ := sh.pop() // idle ended on a non-empty queue, and nothing ran since
		deqNS := ctx.Now()
		var opt api.AcquireOpts
		if spec.TimeoutNS > 0 {
			opt.DeadlineNS = deqNS + spec.TimeoutNS
		}
		g, out := h.Acquire(c.table.Ptr(int(r.key)), r.mode, opt)
		if !out.Granted() {
			// A deadline miss is a service-level rejection: shed, so the
			// conservation invariant stays exact.
			sh.timeouts++
			sh.shed++
			if r.arriveNS >= spec.WarmupNS {
				sh.recTimeouts++
				sh.recShed++
			}
			continue
		}
		grantNS := ctx.Now()
		if cs > 0 {
			ctx.Work(cs)
		}
		h.Release(g)
		endNS := ctx.Now()
		sh.served++
		if r.arriveNS >= spec.WarmupNS {
			sh.recServed++
			if r.mode == api.Shared {
				sh.recReads++
				sh.readE2E.Add(endNS - r.arriveNS)
			} else {
				sh.recWrites++
				sh.writeE2E.Add(endNS - r.arriveNS)
			}
			sh.queueWait.Add(deqNS - r.arriveNS)
			sh.acquireWait.Add(grantNS - deqNS)
			sh.hold.Add(endNS - grantNS)
			sh.e2e.Add(endNS - r.arriveNS)
			if sh.firstRecNS == 0 || endNS < sh.firstRecNS {
				sh.firstRecNS = endNS
			}
			if endNS > sh.lastRecNS {
				sh.lastRecNS = endNS
			}
		}
	}
}

// Finalize sweeps every request still queued at shutdown into the shed
// counters — those arrivals were offered but never served, and counting
// them makes the conservation invariant exact: Offered == Served + Shed.
// Idempotent; Metrics calls it automatically.
func (c *Cluster) Finalize() {
	if c.swept {
		return
	}
	c.swept = true
	for _, sh := range c.sh {
		for {
			r, ok := sh.pop()
			if !ok {
				break
			}
			c.shedOne(sh, r)
		}
	}
}

// Metrics aggregates the service-level outcome of one run.
type Metrics struct {
	// Whole-run conservation counters: Offered == Served + Shed, with
	// Timeouts a subset of Shed.
	Offered, Served, Shed, Timeouts int64
	// Recorded (post-warmup-arrival) counters.
	RecOffered, RecServed, RecShed, RecTimeouts int64
	RecReads, RecWrites                         int64
	// FirstRecNS/LastRecNS bracket the recorded completions.
	FirstRecNS, LastRecNS int64
	// MaxQueueLen is the deepest any shard queue got (whole run).
	MaxQueueLen int
	// ShardServed is the recorded served count per shard — the balance
	// view the placement experiments read.
	ShardServed []int64
	// Latency decomposition over served recorded requests:
	// E2E = QueueWait + AcquireWait + Hold, per request.
	QueueWait, AcquireWait, Hold, E2E stats.Hist
	// ReadE2E/WriteE2E split E2E by acquire mode.
	ReadE2E, WriteE2E stats.Hist
}

// Metrics finalizes the cluster and merges every shard's state.
func (c *Cluster) Metrics() Metrics {
	c.Finalize()
	m := Metrics{ShardServed: make([]int64, len(c.sh))}
	for i, sh := range c.sh {
		m.Offered += sh.offered
		m.Served += sh.served
		m.Shed += sh.shed
		m.Timeouts += sh.timeouts
		m.RecOffered += sh.recOffered
		m.RecServed += sh.recServed
		m.RecShed += sh.recShed
		m.RecTimeouts += sh.recTimeouts
		m.RecReads += sh.recReads
		m.RecWrites += sh.recWrites
		m.ShardServed[i] = sh.recServed
		if sh.maxQueueLen > m.MaxQueueLen {
			m.MaxQueueLen = sh.maxQueueLen
		}
		if sh.recServed > 0 {
			if m.FirstRecNS == 0 || sh.firstRecNS < m.FirstRecNS {
				m.FirstRecNS = sh.firstRecNS
			}
			if sh.lastRecNS > m.LastRecNS {
				m.LastRecNS = sh.lastRecNS
			}
		}
		m.QueueWait.Merge(&sh.queueWait)
		m.AcquireWait.Merge(&sh.acquireWait)
		m.Hold.Merge(&sh.hold)
		m.E2E.Merge(&sh.e2e)
		m.ReadE2E.Merge(&sh.readE2E)
		m.WriteE2E.Merge(&sh.writeE2E)
	}
	return m
}
