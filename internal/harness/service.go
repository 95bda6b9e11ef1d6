// service.go is the harness's open-loop run path: configs with
// ArrivalRate > 0 are executed by the lock-service layer
// (internal/cluster) instead of closed-loop workload threads. The two
// paths share Config, Result, the lock providers, the lock table and the
// engine; they differ in who issues operations — a fixed thread population
// looping as fast as the locks allow (closed loop) versus per-shard
// Poisson arrival generators offering a configured load to bounded worker
// pools (open loop).
package harness

import (
	"fmt"

	"alock/internal/cluster"
	"alock/internal/core"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/sim"
	"alock/internal/stats"
)

// SvcStats is the service-level outcome of an open-loop run, attached to
// Result.Svc. Counters are recorded (post-warmup-arrival) unless prefixed
// Total; the Total counters exist for the conservation invariant
// TotalOffered == TotalServed + TotalShed over the whole run.
type SvcStats struct {
	// Deployment shape, echoed for reports.
	Shards    int
	Placement string
	Policy    string
	QueueCap  int
	Clients   int64
	// Offered/Served/Shed/Timeouts are the recorded request outcomes
	// (Timeouts is the subset of Shed rejected at the acquire deadline
	// rather than the admission queue).
	Offered  int64
	Served   int64
	Shed     int64
	Timeouts int64
	// Whole-run conservation counters (warmup included, shutdown-swept).
	TotalOffered int64
	TotalServed  int64
	TotalShed    int64
	// OfferedOPS is the recorded arrival rate over the measurement
	// window; GoodputOPS is completed operations over the recorded span
	// (== Result.Throughput). Their gap is what admission control shed.
	OfferedOPS float64
	GoodputOPS float64
	// MaxQueueLen is the deepest any shard queue got.
	MaxQueueLen int
	// ShardServed is the per-shard recorded served count — the balance
	// view the placement and rebalance experiments read.
	ShardServed []int64
	// Latency decomposition over served requests: end-to-end latency
	// (Result.Latency) = QueueWait + AcquireWait + HoldTime per request.
	QueueWait   stats.Summary
	AcquireWait stats.Summary
	HoldTime    stats.Summary
}

// runService executes one open-loop lock-service run. cfg has defaults
// applied and passed Validate.
func runService(cfg Config) (Result, error) {
	workers := cfg.SvcShards * cfg.ThreadsPerNode
	prov, err := locks.ByName(cfg.Algorithm, locks.Options{
		ALockConfig: core.Config{
			LocalBudget:  cfg.LocalBudget,
			RemoteBudget: cfg.RemoteBudget,
		},
		RW: locks.RWConfig{
			ReadBudget:  cfg.ReadBudget,
			WriteBudget: cfg.WriteBudget,
		},
		Threads: workers,
		Timed:   cfg.AcquireTimeout > 0,
	})
	if err != nil {
		return Result{}, err
	}

	// The service keeps every piece of Go-side state shard-local by
	// construction, so open-loop runs are safe at any worker width.
	e := sim.New(cfg.Nodes, cfg.WordsPerNode, cfg.Model, cfg.Seed, cfg.engineOptions()...)
	layout := locktable.RoundRobinHome
	if cfg.HomeSkewPct > 0 {
		layout = locktable.SkewedHome(0, cfg.HomeSkewPct)
	}
	table := locktable.NewWithLayout(e.Space(), cfg.Locks, layout)
	prov.Prepare(e.Space(), table.All())
	ft := locks.NewFenceTable()

	place, err := cluster.NewPlacement(cfg.SvcPlacement, cfg.SvcShards, table)
	if err != nil {
		return Result{}, err
	}
	weights := cluster.KeyWeights(cfg.Locks, cfg.ZipfS)
	if cfg.SvcRebalance {
		place = cluster.RebalanceHotKeys(place, weights, cfg.SvcShards)
	}
	policy, err := cluster.ParsePolicy(cfg.SvcAdmission)
	if err != nil {
		return Result{}, err
	}
	spec := cluster.Spec{
		Shards:          cfg.SvcShards,
		WorkersPerShard: cfg.ThreadsPerNode,
		Clients:         cfg.Clients,
		RateOPS:         cfg.ArrivalRate,
		QueueCap:        cfg.SvcQueueCap,
		Policy:          policy,
		ReadPct:         cfg.ReadPct,
		CSWorkNS:        cfg.CSWork.Nanoseconds(),
		TimeoutNS:       cfg.AcquireTimeout.Nanoseconds(),
		WarmupNS:        cfg.WarmupNS,
		BurstOnNS:       cfg.BurstOn.Nanoseconds(),
		BurstOffNS:      cfg.BurstOff.Nanoseconds(),
	}
	cl, err := cluster.Install(e, table, prov, ft, place, weights, spec)
	if err != nil {
		return Result{}, err
	}
	e.Run(cfg.WarmupNS + cfg.MeasureNS)
	m := cl.Metrics()
	if m.Offered != m.Served+m.Shed {
		// The conservation invariant is structural; failing it means the
		// service lost or double-counted a request.
		return Result{}, fmt.Errorf("harness: service conservation violated: offered %d != served %d + shed %d",
			m.Offered, m.Served, m.Shed)
	}

	res := Result{Config: cfg, Events: e.Events()}
	res.Ops = m.RecServed
	res.ReadOps = m.RecReads
	res.WriteOps = m.RecWrites
	res.Timeouts = m.RecTimeouts
	res.SpanNS = recordedSpan(m.FirstRecNS, m.LastRecNS, cfg.WarmupNS, false)
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.SpanNS) / 1e9)
	}
	res.Latency = m.E2E.Summarize()
	res.ReadLatency = m.ReadE2E.Summarize()
	res.WriteLatency = m.WriteE2E.Summarize()
	res.CDF = m.E2E.CDF()

	for n := 0; n < cfg.Nodes; n++ {
		st := e.NIC(n).Stats()
		res.NIC.Verbs += st.Verbs
		res.NIC.QPCMisses += st.QPCMisses
		res.NIC.Slowdowns += st.Slowdowns
		res.NIC.DistinctQPs += st.DistinctQPs
		if st.MaxBacklogNS > res.NIC.MaxBacklogNS {
			res.NIC.MaxBacklogNS = st.MaxBacklogNS
		}
	}
	if agg, ok := prov.(locks.StatsAggregator); ok {
		res.Lock = agg.AggregateStats()
	}

	res.Svc = &SvcStats{
		Shards:       cfg.SvcShards,
		Placement:    place.Name(),
		Policy:       policy.String(),
		QueueCap:     cfg.SvcQueueCap,
		Clients:      cfg.Clients,
		Offered:      m.RecOffered,
		Served:       m.RecServed,
		Shed:         m.RecShed,
		Timeouts:     m.RecTimeouts,
		TotalOffered: m.Offered,
		TotalServed:  m.Served,
		TotalShed:    m.Shed,
		// Arrivals are recorded over [WarmupNS, WarmupNS+MeasureNS), so
		// the measurement window is the exact offered-rate denominator.
		OfferedOPS:  float64(m.RecOffered) / (float64(cfg.MeasureNS) / 1e9),
		GoodputOPS:  res.Throughput,
		MaxQueueLen: m.MaxQueueLen,
		ShardServed: m.ShardServed,
		QueueWait:   m.QueueWait.Summarize(),
		AcquireWait: m.AcquireWait.Summarize(),
		HoldTime:    m.Hold.Summarize(),
	}
	return res, nil
}
