// scenarios.go registers the built-in catalog: the paper's evaluation
// sweeps (Section 6) as named scenarios — every grid cmd/figures renders —
// plus workload shapes beyond the paper: hot-key skew, bursty arrivals, a
// skewed-home table, a think-heavy application profile, reader/writer
// mixes (rw/...), lease-style long holds (lease/...) and failure/recovery
// jitter sweeps (fail/...).
package scenario

import (
	"time"

	"alock/internal/harness"
	"alock/internal/locktable"
	"alock/internal/model"
)

// evalAlgorithms are the algorithms compared in Figures 5 and 6 (Section 6:
// ALock vs the RDMA spinlock and the RDMA-ported MCS lock).
var evalAlgorithms = []string{"alock", "spinlock", "mcs"}

// noHorizonNS is a measurement window no run reaches: a config carrying it
// stops on TargetOps alone.
const noHorizonNS = 1 << 40

// figure1Configs enumerates the Section 2 loopback experiment: an RDMA
// spinlock over 1000 locks on a single machine, all operations through the
// local RNIC, across thread counts.
func figure1Configs(s harness.Scale) []harness.Config {
	warm, meas := s.Windows()
	counts := []int{1, 2, 3, 4, 6, 8, 12, 16}
	if s.Quick {
		counts = []int{1, 2, 4, 8, 16}
	}
	cfgs := make([]harness.Config, 0, len(counts))
	for _, th := range counts {
		cfgs = append(cfgs, harness.Config{
			Algorithm:      "spinlock",
			Nodes:          1,
			ThreadsPerNode: th,
			Locks:          1000,
			LocalityPct:    100, // irrelevant to the spinlock: all loopback
			WarmupNS:       warm,
			MeasureNS:      meas,
			TargetOps:      s.TargetOpsCount(),
			Seed:           s.DefaultSeed(),
		})
	}
	return cfgs
}

// fig5Grid expands one Figure 5 contention/locality shape — one panel per
// cluster size — across the evaluation algorithms and the scale's thread
// counts.
func fig5Grid(locks, localityPct int) func(harness.Scale) []harness.Config {
	return func(s harness.Scale) []harness.Config {
		var cfgs []harness.Config
		for _, nodes := range s.NodeCounts() {
			cfgs = append(cfgs, sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.Nodes, c.Locks, c.LocalityPct = nodes, locks, localityPct
			})...)
		}
		return cfgs
	}
}

// figure6Configs enumerates the latency-CDF grid — rows are locality
// (100/95/90/85%), columns contention (20/100/1000 locks), one config per
// evaluation algorithm — in panel order, on the cluster its scenario's
// Scale pins.
func figure6Configs(s harness.Scale) []harness.Config {
	var cfgs []harness.Config
	for _, loc := range []int{100, 95, 90, 85} {
		for _, locks := range []int{20, 100, 1000} {
			cfgs = append(cfgs, sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.Locks, c.LocalityPct = locks, loc
			})...)
		}
	}
	return cfgs
}

// figure4Configs is the budget study (Section 6.1): local budget fixed at
// 5, remote budget swept over {5, 10, 20} at 85/90/95% locality on the
// largest cluster, each point over several seeds to denoise the
// few-percent effect. The paper reports up to +23% from raising the remote
// budget at 100 locks; the budget binds when remote queues sustain
// multi-pass runs, so the high-contention table (20 locks), where the
// effect is stronger in this reproduction's cost model, is measured too.
func figure4Configs(s harness.Scale) []harness.Config {
	warm, meas := s.Windows()
	localities := []int{85, 90, 95}
	budgets := []int64{5, 10, 20}
	lockSizes := []int{100, 20}
	threads := 12
	if s.Quick {
		threads = 6
	}
	seeds := []int64{1, 2, 3}
	if s.Quick {
		seeds = []int64{1, 2}
	}
	if s.TestTiny {
		threads = 2
		seeds = []int64{1}
	}
	var cfgs []harness.Config
	for _, locksN := range lockSizes {
		for _, b := range budgets {
			for _, loc := range localities {
				for _, seed := range seeds {
					cfgs = append(cfgs, harness.Config{
						Algorithm:      "alock",
						Nodes:          s.BigClusterNodes(),
						ThreadsPerNode: threads,
						Locks:          locksN,
						LocalityPct:    loc,
						LocalBudget:    5,
						RemoteBudget:   b,
						WarmupNS:       warm,
						MeasureNS:      meas,
						TargetOps:      s.TargetOpsCount(),
						Seed:           s.DefaultSeed() * seed,
					})
				}
			}
		}
	}
	return cfgs
}

// fig5LocalityConfigs supplements the low-contention panels with ALock's
// locality sensitivity (the paper: +40% from 85%→90% and a further +75% at
// 95% on five nodes with 1000 locks): 5 nodes, 8 threads per node.
func fig5LocalityConfigs(s harness.Scale) []harness.Config {
	warm, meas := s.Windows()
	nodes, threads := 5, 8
	if s.TestTiny {
		nodes, threads = 3, 2
	}
	localities := []int{85, 90, 95, 100}
	cfgs := make([]harness.Config, 0, len(localities))
	for _, loc := range localities {
		cfgs = append(cfgs, harness.Config{
			Algorithm:      "alock",
			Nodes:          nodes,
			ThreadsPerNode: threads,
			Locks:          1000,
			LocalityPct:    loc,
			WarmupNS:       warm,
			MeasureNS:      meas,
			TargetOps:      s.TargetOpsCount(),
			Seed:           s.DefaultSeed(),
		})
	}
	return cfgs
}

// ablationConfigs quantifies ALock's design choices under one
// representative contended configuration: the budget (alock vs
// alock-nobudget) and the asymmetric cohort split (alock vs
// alock-symmetric vs mcs).
func ablationConfigs(s harness.Scale) []harness.Config {
	warm, meas := s.Windows()
	nodes, threads := 8, 8
	if s.TestTiny {
		nodes, threads = 3, 2
	}
	algos := []string{"alock", "alock-nobudget", "alock-symmetric", "mcs"}
	cfgs := make([]harness.Config, 0, len(algos))
	for _, algo := range algos {
		cfgs = append(cfgs, harness.Config{
			Algorithm:      algo,
			Nodes:          nodes,
			ThreadsPerNode: threads,
			Locks:          100,
			LocalityPct:    90,
			WarmupNS:       warm,
			MeasureNS:      meas,
			TargetOps:      s.TargetOpsCount(),
			Seed:           s.DefaultSeed(),
		})
	}
	return cfgs
}

// qpThrashingConfigs is the experiment Section 2 suggests: commodity RNICs
// cache only ~450 QP contexts, and systems that use loopback maintain a QP
// from every thread to its own node on top of the cross-node connections —
// so ALock "limits QP thrashing by removing 1/n QPs from the system". It
// sweeps the QPC cache capacity around the cluster's QP working set for
// ALock and the loopback competitors on the largest cluster. The
// cross-node QP working set of a 16-node x 8-thread cluster is ~232 QPs per
// NIC (8*15 outgoing + 15*8 incoming — ALock creates no loopback QPs); the
// competitors add 8 loopback QPs per node and touch them constantly. It is
// an extension: the paper argues the effect, this measures it under the
// model.
func qpThrashingConfigs(s harness.Scale) []harness.Config {
	warm, _ := s.Windows()
	threads := 8
	if s.Quick {
		threads = 4
	}
	caps := []int{64, 128, 256, 450}
	if s.Quick {
		caps = []int{64, 256}
	}
	if s.TestTiny {
		threads = 2
		caps = []int{16}
	}
	var cfgs []harness.Config
	for _, cacheCap := range caps {
		for _, algo := range evalAlgorithms {
			m := model.CX3()
			m.QPCCacheCap = cacheCap
			// Every algorithm performs the same number of operations (the
			// horizon is effectively unbounded): distinct-QP counts are
			// then comparable across algorithms rather than confounded by
			// how far each got before a time cutoff.
			cfgs = append(cfgs, harness.Config{
				Algorithm:      algo,
				Nodes:          s.BigClusterNodes(),
				ThreadsPerNode: threads,
				Locks:          1000,
				LocalityPct:    90,
				Model:          m,
				WarmupNS:       warm,
				MeasureNS:      noHorizonNS,
				TargetOps:      s.TargetOpsCount() * 3,
				Seed:           s.DefaultSeed(),
			})
		}
	}
	return cfgs
}

// rwAlgorithms are what the reader/writer scenarios compare: the three
// native RW locks plus ALock as the exclusive-degradation baseline (its
// RLock behaves as Lock, so the gap it shows IS the value of shared mode).
var rwAlgorithms = []string{"rw-queue", "rw-budget", "rw-wpref", "alock"}

// sweepGrid enumerates algorithms x the scale's thread counts on the big
// cluster at medium contention / 90% locality, applying mut to each config
// — the common chassis the extension scenarios specialize.
func sweepGrid(s harness.Scale, algos []string, mut func(*harness.Config)) []harness.Config {
	warm, meas := s.Windows()
	var cfgs []harness.Config
	for _, algo := range algos {
		for _, th := range s.ThreadCounts() {
			c := harness.Config{
				Algorithm:      algo,
				Nodes:          s.BigClusterNodes(),
				ThreadsPerNode: th,
				Locks:          locktable.MediumContentionLocks,
				LocalityPct:    90,
				WarmupNS:       warm,
				MeasureNS:      meas,
				TargetOps:      s.TargetOpsCount(),
				Seed:           s.DefaultSeed(),
			}
			mut(&c)
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func init() {
	Register(Scenario{
		Name:        "paper/fig1-loopback",
		Description: "Section 2 loopback congestion: RDMA spinlock on one node across thread counts",
		Expand:      figure1Configs,
	})
	Register(Scenario{
		Name:        "paper/fig5-high-contention",
		Description: "Figure 5 high-contention panels: 20 locks, 90% locality, all algorithms",
		Expand:      fig5Grid(locktable.HighContentionLocks, 90),
	})
	Register(Scenario{
		Name:        "paper/fig5-medium-contention",
		Description: "Figure 5 medium-contention panels: 100 locks, 90% locality, all algorithms",
		Expand:      fig5Grid(locktable.MediumContentionLocks, 90),
	})
	Register(Scenario{
		Name:        "paper/fig5-low-contention",
		Description: "Figure 5 low-contention panels: 1000 locks, 90% locality, all algorithms",
		Expand:      fig5Grid(locktable.LowContentionLocks, 90),
	})
	Register(Scenario{
		Name:        "paper/fig5-full-locality",
		Description: "Figure 5 isolated panels: 20 locks, 100% locality, all algorithms",
		Expand:      fig5Grid(locktable.HighContentionLocks, 100),
	})
	Register(Scenario{
		Name:        "paper/fig6-latency",
		Description: "Figure 6 latency-CDF grid: locality x contention at 8 threads/node",
		Scale: func(s harness.Scale) harness.Scale {
			s.NodesOverride = []int{10} // Figure 6's 10-node cluster
			s.ThreadsOverride = []int{8}
			return s
		},
		Expand: figure6Configs,
	})
	Register(Scenario{
		Name:        "paper/fig4-budget",
		Description: "Figure 4 budget study: ALock remote budget 5/10/20 at 85-95% locality, 100 and 20 locks, over seeds",
		Expand:      figure4Configs,
	})
	Register(Scenario{
		Name:        "paper/fig5-locality",
		Description: "Figure 5 supplement: ALock at 85/90/95/100% locality, 5 nodes, 1000 locks",
		Expand:      fig5LocalityConfigs,
	})
	Register(Scenario{
		Name:        "ablations",
		Description: "ALock ablations: no budget, symmetric cohorts and MCS at 100 locks, 90% locality",
		Expand:      ablationConfigs,
	})
	Register(Scenario{
		Name:        "qp-thrashing",
		Description: "QPC cache capacity sweep: loopback QPs of the competitors vs ALock's smaller working set",
		Expand:      qpThrashingConfigs,
	})

	// --- Extensions beyond the paper ---

	Register(Scenario{
		Name:        "hotkey-zipf",
		Description: "Zipf(1.5) hot-key popularity at medium contention: a few locks absorb most traffic",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.ZipfS = 1.5
			})
		},
	})
	Register(Scenario{
		Name:        "bursty-arrivals",
		Description: "on/off arrival phases (60% duty cycle): threads burst, idle, and re-collide",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.Locks = locktable.HighContentionLocks
				c.BurstOn = 150 * time.Microsecond
				c.BurstOff = 100 * time.Microsecond
			})
		},
	})
	Register(Scenario{
		Name:        "skewed-home",
		Description: "60% of the lock table homed on node 0: one shard dominates, its NIC funnels the cluster",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.HomeSkewPct = 60
			})
		},
	})
	// --- Reader/writer mixes (tentpole extension: shared-mode axis) ---

	Register(Scenario{
		Name:        "rw/read-heavy",
		Description: "95/5 read/write mix: native RW locks vs ALock's exclusive degradation",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, rwAlgorithms, func(c *harness.Config) {
				c.ReadPct = 95
			})
		},
	})
	Register(Scenario{
		Name:        "rw/mixed",
		Description: "70/30 read/write mix at high contention: write serialization bites",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, rwAlgorithms, func(c *harness.Config) {
				c.ReadPct = 70
				c.Locks = locktable.HighContentionLocks
			})
		},
	})

	Register(Scenario{
		Name:        "rw/queue-scaling",
		Description: "90/10 read mix across thread counts: queued descriptors vs the single-word RW locks",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, rwAlgorithms, func(c *harness.Config) {
				c.ReadPct = 90
			})
		},
	})
	Register(Scenario{
		Name:        "rw/storm-tails",
		Description: "70/30 mix on 20 hot locks: the rCAS storm at the home NICs, read vs write tails",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{4, 8, 12} // the tails, not a full thread sweep
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, []string{"rw-queue", "rw-budget", "rw-wpref"},
				func(c *harness.Config) {
					c.ReadPct = 70
					c.Locks = locktable.HighContentionLocks
				})
		},
	})

	// --- Lease-style long holds ---

	Register(Scenario{
		Name:        "lease/holders",
		Description: "2% of ops hold the lock 25us (ownership leases): queues ride out long holds",
		// Long holds need a longer window to produce stable tails, and the
		// interesting regime is a few contended threads — the per-scenario
		// override decouples both from the global presets.
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{2, 4, 8}
			s.WarmupOverride = 800_000
			s.MeasureOverride = 8_000_000
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.Locks = locktable.HighContentionLocks
				c.LeaseProb = 0.02
				c.LeaseHold = 25 * time.Microsecond
			})
		},
	})
	Register(Scenario{
		Name:        "lease/rw-leases",
		Description: "90/10 read mix where 1% of ops are 50us write-side leases: readers drain around them",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{4, 8}
			s.MeasureOverride = 8_000_000
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, []string{"rw-budget", "rw-wpref"}, func(c *harness.Config) {
				c.ReadPct = 90
				c.LeaseProb = 0.01
				c.LeaseHold = 50 * time.Microsecond
			})
		},
	})

	// --- Failure/recovery on the jitter injection hooks ---

	Register(Scenario{
		Name:        "fail/jitter-storm",
		Description: "fabric failure storm: per-verb 20us delay spikes at 0.1%/1%/5% probability",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{8} // the sweep axis is storm intensity, not threads
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			var cfgs []harness.Config
			for _, prob := range []float64{0.001, 0.01, 0.05} {
				cfgs = append(cfgs, sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
					m := model.CX3()
					m.JitterProb = prob
					m.JitterNS = 20_000
					c.Model = m
				})...)
			}
			return cfgs
		},
	})
	Register(Scenario{
		Name:        "fail/jitter-recovery",
		Description: "recovery cost vs spike size: 1% of verbs delayed 5/20/80us, tails show the drain",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{8}
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			var cfgs []harness.Config
			for _, spike := range []int64{5_000, 20_000, 80_000} {
				cfgs = append(cfgs, sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
					m := model.CX3()
					m.JitterProb = 0.01
					m.JitterNS = spike
					c.Model = m
				})...)
			}
			return cfgs
		},
	})

	// --- Failure injection on the acquisition-token API ---

	Register(Scenario{
		Name:        "fail/abandoned-holder",
		Description: "0.5% of holds crash and wedge the lock 150us: timeouts keep the rest alive, recovery fences the late release",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{4, 8}
			s.MeasureOverride = 8_000_000
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, []string{"alock", "mcs", "spinlock", "rw-queue"},
				func(c *harness.Config) {
					c.Locks = locktable.HighContentionLocks
					c.AcquireTimeout = 30 * time.Microsecond
					c.AbandonProb = 0.005
					c.AbandonHold = 150 * time.Microsecond
				})
		},
	})
	Register(Scenario{
		Name:        "fail/timeout-recovery",
		Description: "acquire deadline sweep 10/30/90us on hot locks: how tight a deadline each queue discipline tolerates",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{8}
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			var cfgs []harness.Config
			for _, timeout := range []time.Duration{10, 30, 90} {
				cfgs = append(cfgs, sweepGrid(s, []string{"alock", "mcs", "spinlock", "rw-queue"},
					func(c *harness.Config) {
						c.Locks = locktable.HighContentionLocks
						c.AcquireTimeout = timeout * time.Microsecond
					})...)
			}
			return cfgs
		},
	})

	// --- Multi-lock transactions (descriptor-per-acquisition) ---

	Register(Scenario{
		Name:        "multi/two-lock",
		Description: "10% of ops are ordered two-lock transactions: overlapping holds via per-acquisition descriptors",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{2, 4, 8}
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.PairProb = 0.10
			})
		},
	})

	// --- Deadlock policies over k-lock transactions ---
	//
	// The transaction scenarios sweep the algorithms with a fully
	// abortable timed path: the unordered policies recover through real
	// timeouts, so every participant of a conflict cycle must be able to
	// abandon its acquire. filter/bakery (blocking fallback) and the
	// alock variants (committed cohort leaders) are rejected by the
	// harness for these policies; they still run the ordered policy.

	txnAlgorithms := []string{"mcs", "rw-budget", "rw-queue", "rw-wpref", "spinlock"}
	txnBase := func(c *harness.Config) {
		c.TxnLocks = 2
		c.AcquireTimeout = 20 * time.Microsecond
	}
	Register(Scenario{
		Name:        "deadlock/two-cycle",
		Description: "2 threads-per-lock AB-BA cycle on a 2-lock table: timeout-backoff breaks the classic deadlock",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{1, 2}
			s.NodesOverride = []int{2}
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, txnAlgorithms, func(c *harness.Config) {
				txnBase(c)
				c.Locks = 2
				c.TxnRing = true
				c.TxnPolicy = "timeout-backoff"
				// The 2-lock cycle is maximally hostile: tight deadlines and
				// a small backoff base keep commits flowing even in short
				// windows (the capped exponent still separates colliders).
				c.AcquireTimeout = 10 * time.Microsecond
				c.TxnBackoff = 4 * time.Microsecond
			})
		},
	})
	Register(Scenario{
		Name:        "deadlock/dining",
		Description: "dining philosophers: each thread's 2-lock txn takes neighboring forks on a 20-fork ring, wait-die resolves the cycle",
		Scale: func(s harness.Scale) harness.Scale {
			// Dining is per-ring-slot contention: philosophers should match
			// forks (20), not the big-cluster presets — oversubscribing the
			// ring 6x starves every policy into zero commits.
			s.NodesOverride = []int{4}
			s.ThreadsOverride = []int{2, 5} // 8 philosophers, then a full ring of 20
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, txnAlgorithms, func(c *harness.Config) {
				txnBase(c)
				c.Locks = locktable.HighContentionLocks
				c.TxnRing = true
				c.TxnPolicy = "wait-die"
			})
		},
	})
	Register(Scenario{
		Name:        "deadlock/hotset-unordered",
		Description: "3-lock transactions over zipf-hot lock sets, acquired unordered: timeout-backoff under hot-set collisions",
		Scale: func(s harness.Scale) harness.Scale {
			s.ThreadsOverride = []int{4, 8}
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, txnAlgorithms, func(c *harness.Config) {
				txnBase(c)
				c.TxnLocks = 3
				c.ZipfS = 1.5
				c.TxnPolicy = "timeout-backoff"
				c.TxnBackoff = 10 * time.Microsecond
			})
		},
	})
	Register(Scenario{
		Name:        "deadlock/policy-compare",
		Description: "one dining-ring config swept across all three policies: ordered avoidance vs timeout-backoff vs wait-die",
		Scale: func(s harness.Scale) harness.Scale {
			s.NodesOverride = []int{4}
			s.ThreadsOverride = []int{5} // a full 20-philosopher ring
			return s
		},
		Expand: func(s harness.Scale) []harness.Config {
			var cfgs []harness.Config
			for _, policy := range []string{"ordered", "timeout-backoff", "wait-die"} {
				cfgs = append(cfgs, sweepGrid(s, txnAlgorithms, func(c *harness.Config) {
					txnBase(c)
					c.Locks = locktable.HighContentionLocks
					c.TxnRing = true
					c.TxnPolicy = policy
					if policy == "timeout-backoff" {
						c.TxnBackoff = 10 * time.Microsecond
					}
				})...)
			}
			return cfgs
		},
	})

	Register(Scenario{
		Name:        "think-heavy",
		Description: "application profile with 2us critical sections and 5us think time between ops",
		Expand: func(s harness.Scale) []harness.Config {
			return sweepGrid(s, evalAlgorithms, func(c *harness.Config) {
				c.CSWork = 2 * time.Microsecond
				c.Think = 5 * time.Microsecond
			})
		},
	})
}
