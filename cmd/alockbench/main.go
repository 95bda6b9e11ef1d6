// Command alockbench runs lock-table experiments on the deterministic RDMA
// cluster simulator: a single configuration assembled from flags, or a
// named scenario from the registry fanned out across all cores.
//
// Examples:
//
//	alockbench -algo alock -nodes 10 -threads 8 -locks 100 -locality 90
//	alockbench -algo spinlock -nodes 1 -threads 16 -locks 1000
//	alockbench -algo alock -local-budget 5 -remote-budget 20 -cdf
//	alockbench -algo alock -burst-on 150us -burst-off 100us
//	alockbench -algo rw-budget -read-pct 95
//	alockbench -algo rw-queue -read-pct 70 -read-budget 32 -write-budget 8
//	alockbench -algo mcs -lease-prob 0.02 -lease-hold 25us
//	alockbench -algo alock -acquire-timeout 30us
//	alockbench -algo rw-queue -acquire-timeout 30us -abandon-prob 0.01 -abandon-hold 200us
//	alockbench -algo mcs -pair-prob 0.1
//	alockbench -algo mcs -txn-locks 2 -txn-policy wait-die -txn-ring -acquire-timeout 20us
//	alockbench -algo rw-queue -txn-locks 3 -txn-policy timeout-backoff -acquire-timeout 20us -txn-backoff 10us
//	alockbench -algo alock -arrival-rate 2e6 -clients 1000000 -svc-shards 8 -placement hash -admission drop-head
//	alockbench -algo alock -arrival-rate 1.5e6 -zipf 1.5 -placement home -svc-rebalance
//	alockbench -list-scenarios
//	alockbench -scenario deadlock/dining -quick -parallel 8
//	alockbench -scenario paper/fig5-high-contention -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -h lists the algorithms -algo takes: the lock registry's names. Algorithms
// without native shared mode run -read-pct workloads with reads degraded to
// exclusive; algorithms without a native timed path (filter, bakery) overshoot
// -acquire-timeout deadlines — the acquisition completes but is counted as
// a late acquire (the grant landed past the deadline), and the unordered
// transaction policies reject them outright since their recovery depends
// on real timeouts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"alock/internal/bench"
	"alock/internal/harness"
	"alock/internal/locks"
	"alock/internal/report"
	"alock/internal/scenario"
	"alock/internal/sweep"
)

func main() {
	// Every experiment axis binds straight into the Config the run uses;
	// harness.Config.Validate, reached through Run, is the only gate.
	var cfg harness.Config
	flag.StringVar(&cfg.Algorithm, "algo", "alock", "lock algorithm: "+strings.Join(locks.Names(), ", "))
	flag.IntVar(&cfg.Nodes, "nodes", 5, "cluster nodes (1..16)")
	flag.IntVar(&cfg.ThreadsPerNode, "threads", 8, "threads per node")
	flag.IntVar(&cfg.Locks, "locks", 100, "lock table size (paper: 20/100/1000)")
	flag.IntVar(&cfg.LocalityPct, "locality", 90, "percent of operations on node-local locks")
	flag.Int64Var(&cfg.LocalBudget, "local-budget", 0, "ALock local budget (0 = paper default 5)")
	flag.Int64Var(&cfg.RemoteBudget, "remote-budget", 0, "ALock remote budget (0 = paper default 20)")
	flag.Int64Var(&cfg.ReadBudget, "read-budget", 0, "RW locks: reader admissions per group/phase (0 = default 16)")
	flag.Int64Var(&cfg.WriteBudget, "write-budget", 0, "RW locks: writer admissions per phase (0 = default 4)")
	flag.Int64Var(&cfg.TargetOps, "target-ops", 0, "stop after this many recorded ops (0 = run full window)")
	flag.DurationVar(&cfg.CSWork, "cs", 0, "critical-section body duration")
	flag.DurationVar(&cfg.Think, "think", 0, "think time between operations")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	flag.Float64Var(&cfg.ZipfS, "zipf", 0, "Zipf skew s (>1) for hot-key popularity (0 = uniform)")
	flag.DurationVar(&cfg.BurstOn, "burst-on", 0, "bursty arrivals: on-phase duration (0 = steady)")
	flag.DurationVar(&cfg.BurstOff, "burst-off", 0, "bursty arrivals: off-phase duration")
	flag.IntVar(&cfg.HomeSkewPct, "home-skew", 0, "percent of the lock table homed on node 0 (0 = equal partition)")
	flag.IntVar(&cfg.ReadPct, "read-pct", 0, "percent of operations acquiring shared/read mode (0 = exclusive only)")
	flag.Float64Var(&cfg.LeaseProb, "lease-prob", 0, "per-op probability of a lease-style long hold (0 = off)")
	flag.DurationVar(&cfg.LeaseHold, "lease-hold", 0, "duration of a lease hold")
	flag.DurationVar(&cfg.AcquireTimeout, "acquire-timeout", 0, "give up acquisitions after this engine time (0 = block; switches queued locks to the timed protocol)")
	flag.Float64Var(&cfg.AbandonProb, "abandon-prob", 0, "per-op probability the holder crashes and is reclaimed by recovery (0 = off; requires -acquire-timeout)")
	flag.DurationVar(&cfg.AbandonHold, "abandon-hold", 0, "dead time an abandoned hold wedges its lock")
	flag.Float64Var(&cfg.PairProb, "pair-prob", 0, "per-op probability of an ordered two-lock transaction (0 = off)")
	flag.IntVar(&cfg.TxnLocks, "txn-locks", 0, "locks per transaction: every op becomes a k-lock transaction (0 = off, k >= 2)")
	flag.StringVar(&cfg.TxnOrder, "txn-order", "", "transaction acquisition order: ordered|unordered (default: the policy's natural order)")
	flag.StringVar(&cfg.TxnPolicy, "txn-policy", "", "deadlock policy: ordered|timeout-backoff|wait-die (default ordered)")
	flag.DurationVar(&cfg.TxnBackoff, "txn-backoff", 0, "base randomized backoff between transaction retries (timeout-backoff default: -acquire-timeout)")
	flag.BoolVar(&cfg.TxnRing, "txn-ring", false, "dining-philosophers lock selection: thread t takes locks (t+j) mod -locks")
	flag.Float64Var(&cfg.ArrivalRate, "arrival-rate", 0, "open-loop offered load in ops/s: switch to the sharded lock service driven by Poisson arrivals (0 = closed loop)")
	flag.Int64Var(&cfg.Clients, "clients", 0, "open loop: logical client population drawn from per arrival (0 = default 1e6)")
	flag.IntVar(&cfg.SvcShards, "svc-shards", 0, "open loop: lock-table service shards (0 = one per node)")
	flag.StringVar(&cfg.SvcPlacement, "placement", "", "open loop: key→shard placement, hash|home (default hash)")
	flag.StringVar(&cfg.SvcAdmission, "admission", "", "open loop: full-queue admission policy, drop-tail|drop-head (default drop-tail)")
	flag.IntVar(&cfg.SvcQueueCap, "svc-queue-cap", 0, "open loop: per-shard admission queue capacity (0 = default 64)")
	flag.BoolVar(&cfg.SvcRebalance, "svc-rebalance", false, "open loop: move hot keys off overloaded shards before the run")
	flag.IntVar(&cfg.EngineShards, "engine-shards", 0, "per-run workers of the windowed executor (0 = auto: the calling goroutine alone until the windows pay for a second worker, then as many as GOMAXPROCS allows; 1 = the calling goroutine alone; >1 = parallel windows; wait-die configs run serial, and a TargetOps run finishes its last window's worth of ops serially)")

	var (
		warmup     = flag.Duration("warmup", 400*time.Microsecond, "virtual warmup window")
		measure    = flag.Duration("measure", 4*time.Millisecond, "virtual measurement window")
		cdf        = flag.Bool("cdf", false, "dump the full latency CDF as CSV")
		asJSON     = flag.Bool("json", false, "emit the full result as JSON instead of text")
		scenName   = flag.String("scenario", "", "run a named scenario instead of a single config")
		listScens  = flag.Bool("list-scenarios", false, "list registered scenarios and exit")
		parallel   = flag.Int("parallel", 0, "concurrent simulations for -scenario (0 = all cores)")
		quick      = flag.Bool("quick", false, "reduced scenario scale (fewer points)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run")
		memprofile = flag.String("memprofile", "", "write a post-run heap profile")
	)
	flag.Parse()

	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
			os.Exit(1)
		}
	}()

	if *listScens {
		scenario.List(os.Stdout)
		return
	}

	if *scenName != "" {
		runScenario(*scenName, *quick, cfg.Seed, *parallel, cfg.EngineShards, *asJSON)
		return
	}

	cfg.WarmupNS, cfg.MeasureNS = warmup.Nanoseconds(), measure.Nanoseconds()
	sweep.WithEngineShards([]harness.Config{cfg}, cfg.EngineShards, os.Stderr) // for the runs-serial notice
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	report.Summary(os.Stdout, res)
	if *cdf {
		fmt.Println("\nlatency_ns,cdf")
		for _, pt := range res.CDF {
			fmt.Printf("%d,%.6f\n", pt.ValueNS, pt.F)
		}
	}
}

func runScenario(name string, quick bool, seed int64, parallel, shards int, asJSON bool) {
	sc, ok := scenario.Get(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "alockbench: unknown scenario %q (try -list-scenarios)\n", name)
		os.Exit(1)
	}
	cfgs := sweep.WithEngineShards(sc.Configs(harness.Scale{Quick: quick, Seed: seed}), shards, os.Stderr)
	results, err := sweep.Runner{Parallel: parallel}.Run(cfgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
		os.Exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "alockbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	report.Sweep(os.Stdout, fmt.Sprintf("Scenario %s: %s", sc.Name, sc.Description), results)
}
