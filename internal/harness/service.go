// service.go is the harness's open-loop operation source: configs with
// ArrivalRate > 0 are driven by the lock-service layer (internal/cluster)
// instead of closed-loop workload threads. Everything else — the gate, the
// prepared simulation, span, fabric and lock statistics — is Run's.
package harness

import (
	"fmt"

	"alock/internal/cluster"
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

// runService installs the lock service on the prepared simulation, runs
// it, and reports the service-level outcome next to the common Result.
func (s *simulation) runService() (Result, error) {
	cfg := s.cfg
	// The service keeps every piece of Go-side state shard-local by
	// construction, so open-loop runs are safe at any worker width.
	place, err := cluster.NewPlacement(cfg.SvcPlacement, cfg.SvcShards, s.table)
	if err != nil {
		return Result{}, err
	}
	weights := cluster.KeyWeights(cfg.Locks, cfg.ZipfS)
	if cfg.SvcRebalance {
		place = cluster.RebalanceHotKeys(place, weights, cfg.SvcShards)
	}
	cl, err := cluster.Install(s.e, s.table, s.prov, s.ft, place, weights, s.svc)
	if err != nil {
		return Result{}, err
	}
	s.e.Run(cfg.WarmupNS + cfg.MeasureNS)
	m := cl.Metrics()
	if m.Offered != m.Served+m.Shed {
		// The conservation invariant is structural; failing it means the
		// service lost or double-counted a request.
		return Result{}, fmt.Errorf("harness: service conservation violated: offered %d != served %d + shed %d",
			m.Offered, m.Served, m.Shed)
	}

	var res Result
	res.Ops = m.RecServed
	res.ReadOps = m.RecReads
	res.WriteOps = m.RecWrites
	res.Timeouts = m.RecTimeouts
	res.Latency = m.E2E.Summarize()
	res.ReadLatency = m.ReadE2E.Summarize()
	res.WriteLatency = m.WriteE2E.Summarize()
	res.CDF = m.E2E.CDF()
	s.finish(&res, m.FirstRecNS, m.LastRecNS, false)

	res.Svc = &SvcStats{
		Shards:       cfg.SvcShards,
		Placement:    place.Name(),
		Policy:       s.svc.Policy.String(),
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
