package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"alock/internal/model"
)

// TestValidateIsTheGate walks every rule that can reject a config — the
// harness's own, and the ones it delegates to workload, cluster, locks and
// model — plus a few configs that must pass, and asserts that Validate and
// Run agree on each: Validate's verdict is Run's, so a nil Validate leaves
// Run nothing to reject. The want substring names the layer that owns the
// rule ("" = accepted); it is how the table shows the delegation.
func TestValidateIsTheGate(t *testing.T) {
	closed := func() Config {
		return Config{Algorithm: "mcs", Nodes: 2, ThreadsPerNode: 2, Locks: 8,
			LocalityPct: 90, WarmupNS: 10_000, MeasureNS: 60_000, Seed: 3}
	}
	open := func() Config {
		c := closed()
		c.ArrivalRate = 1_000_000
		return c
	}
	txn := func() Config {
		c := closed()
		c.TxnLocks, c.TxnPolicy, c.AcquireTimeout = 2, "wait-die", 15*time.Microsecond
		return c
	}
	badModel := model.CX3()
	badModel.RemoteWireNS = 0

	rows := []struct {
		name string
		base func() Config
		mut  func(*Config)
		want string
	}{
		// Accepted: the bases themselves and the richest legal variants.
		{"closed base", closed, func(*Config) {}, ""},
		{"open base", open, func(*Config) {}, ""},
		{"txn base", txn, func(*Config) {}, ""},
		{"small regions", closed, func(c *Config) { c.WordsPerNode, c.Locks = 128, 14 }, ""},
		{"zero windows take defaults", closed, func(c *Config) { c.WarmupNS, c.MeasureNS, c.TargetOps = 0, 0, 200 }, ""},
		{"open: every service knob", open, func(c *Config) {
			c.SvcPlacement, c.SvcAdmission, c.SvcRebalance = "home", "drop-head", true
			c.SvcShards, c.SvcQueueCap, c.Clients = 3, 8, 1000
			c.ZipfS, c.ReadPct, c.AcquireTimeout = 1.5, 50, 5*time.Microsecond
			c.BurstOn, c.BurstOff = 20*time.Microsecond, 10*time.Microsecond
		}, ""},

		// The harness's own rules: cluster shape, windows, engine, modes.
		{"nodes 0", closed, func(c *Config) { c.Nodes = 0 }, "harness: nodes"},
		{"nodes 17", closed, func(c *Config) { c.Nodes = 17 }, "harness: nodes"},
		{"threads 0", closed, func(c *Config) { c.ThreadsPerNode = 0 }, "harness: threads"},
		{"locks 0", closed, func(c *Config) { c.Locks = 0 }, "harness: lock table"},
		{"negative measure window", closed, func(c *Config) { c.MeasureNS = -1 }, "harness: measurement window"},
		{"home skew 101", closed, func(c *Config) { c.HomeSkewPct = 101 }, "harness: home skew"},
		{"negative words per node", closed, func(c *Config) { c.WordsPerNode = -1 }, "harness: words per node"},
		{"lock table larger than a region (was: a panic in prepare)", closed, func(c *Config) { c.WordsPerNode, c.Locks = 64, 100 }, "harness: lock table does not fit"},
		{"skewed table overloads the hot node", closed, func(c *Config) { c.WordsPerNode, c.Locks, c.HomeSkewPct = 64, 10, 90 }, "harness: lock table does not fit: node 0"},
		{"one lock past a region (line 0 is reserved)", closed, func(c *Config) { c.WordsPerNode, c.Locks = 64, 15 }, "harness: lock table does not fit: node 0"},
		{"abandon without timeout", closed, func(c *Config) {
			c.AbandonProb, c.AbandonHold = 0.1, time.Microsecond
		}, "harness: AbandonProb requires AcquireTimeout"},
		{"txn wider than the table", txn, func(c *Config) { c.TxnLocks = 9 }, "harness: TxnLocks"},
		{"pair on a one-lock table (was: silently never paired)", closed, func(c *Config) { c.PairProb, c.Locks = 0.5, 1 }, "harness: PairProb needs at least 2 locks"},
		{"negative engine shards", closed, func(c *Config) { c.EngineShards = -1 }, "harness: negative engine shards"},
		{"negative arrival rate (was: silent closed loop)", closed, func(c *Config) { c.ArrivalRate = -5 }, "harness: arrival rate"},
		{"NaN arrival rate (was: silent closed loop)", closed, func(c *Config) { c.ArrivalRate = math.NaN() }, "harness: arrival rate"},
		{"service knob on a closed loop", closed, func(c *Config) { c.SvcShards = 2 }, "harness: service knobs"},
		{"service placement on a closed loop", closed, func(c *Config) { c.SvcPlacement = "nope" }, "harness: service knobs"},
		{"open: TargetOps", open, func(c *Config) { c.TargetOps = 100 }, "harness: open-loop service runs (ArrivalRate > 0) cannot use TargetOps"},
		{"open: Think", open, func(c *Config) { c.Think = time.Microsecond }, "harness: Think is closed-loop"},
		{"open: lease", open, func(c *Config) { c.LeaseProb, c.LeaseHold = 0.1, time.Microsecond }, "harness: open-loop service runs support plain"},
		{"open: abandon", open, func(c *Config) {
			c.AbandonProb, c.AbandonHold, c.AcquireTimeout = 0.1, time.Microsecond, time.Microsecond
		}, "harness: open-loop service runs support plain"},
		{"open: pair", open, func(c *Config) { c.PairProb = 0.1 }, "harness: open-loop service runs support plain"},
		{"open: txn", open, func(c *Config) { c.TxnLocks = 2 }, "harness: open-loop service runs support plain"},
		{"unordered txn on a non-abortable algorithm", txn, func(c *Config) { c.Algorithm = "alock" }, "harness: txn policy \"wait-die\" needs a fully abortable"},

		// Per-operation axes: workload.Spec.Validate, in both modes.
		{"locality 101", closed, func(c *Config) { c.LocalityPct = 101 }, "workload: locality"},
		{"negative warmup", closed, func(c *Config) { c.WarmupNS = -1 }, "workload: negative durations"},
		{"negative critical section", closed, func(c *Config) { c.CSWork = -1 }, "workload: negative durations"},
		{"negative think", closed, func(c *Config) { c.Think = -1 }, "workload: negative durations"},
		{"zipf 0.9", closed, func(c *Config) { c.ZipfS = 0.9 }, "workload: ZipfS"},
		{"zipf NaN", closed, func(c *Config) { c.ZipfS = math.NaN() }, "workload: ZipfS"},
		{"open: zipf 0.9 (was: silently uniform)", open, func(c *Config) { c.ZipfS = 0.9 }, "workload: ZipfS"},
		{"open: zipf 1 (was: silently uniform)", open, func(c *Config) { c.ZipfS = 1 }, "workload: ZipfS"},
		{"open: locality 101", open, func(c *Config) { c.LocalityPct = 101 }, "workload: locality"},
		{"burst on without off", closed, func(c *Config) { c.BurstOn = time.Microsecond }, "workload: burst phases"},
		{"negative burst", closed, func(c *Config) { c.BurstOn, c.BurstOff = -1, -1 }, "workload: negative burst"},
		{"read share 101", closed, func(c *Config) { c.ReadPct = 101 }, "workload: read share"},
		{"lease probability 2", closed, func(c *Config) { c.LeaseProb, c.LeaseHold = 2, time.Microsecond }, "workload: lease probability"},
		{"lease without hold", closed, func(c *Config) { c.LeaseProb = 0.1 }, "workload: lease needs both"},
		{"negative acquire timeout", closed, func(c *Config) { c.AcquireTimeout = -1 }, "workload: negative acquire timeout"},
		{"abandon probability 2", closed, func(c *Config) {
			c.AbandonProb, c.AbandonHold, c.AcquireTimeout = 2, time.Microsecond, time.Microsecond
		}, "workload: abandon probability"},
		{"abandon hold without probability", closed, func(c *Config) { c.AbandonHold = time.Microsecond }, "workload: abandon needs both"},
		{"pair probability 2", closed, func(c *Config) { c.PairProb = 2 }, "workload: pair probability"},
		{"pair probability NaN (was: accepted, never paired)", closed, func(c *Config) { c.PairProb = math.NaN() }, "workload: pair probability"},
		{"abandon probability NaN (was: accepted)", closed, func(c *Config) { c.AbandonProb = math.NaN() }, "workload: abandon probability"},
		{"lease probability NaN (was: accepted)", closed, func(c *Config) { c.LeaseProb = math.NaN() }, "workload: lease probability"},
		{"one-lock txn", closed, func(c *Config) { c.TxnLocks = 1 }, "workload: TxnLocks 1"},
		{"negative txn backoff", txn, func(c *Config) { c.TxnBackoff = -1 }, "workload: negative txn backoff"},
		{"txn knob without TxnLocks", closed, func(c *Config) { c.TxnRing = true }, "workload: txn knobs set without TxnLocks"},
		{"unknown TxnOrder", txn, func(c *Config) { c.TxnOrder = "sideways" }, "workload: unknown TxnOrder"},
		{"unknown TxnPolicy", txn, func(c *Config) { c.TxnPolicy = "nonsense" }, "workload: unknown TxnPolicy"},
		{"ordered policy, unordered acquisition", txn, func(c *Config) { c.TxnPolicy, c.TxnOrder = "ordered", "unordered" }, "workload: the ordered policy"},
		{"wait-die without a quantum", txn, func(c *Config) { c.AcquireTimeout = 0 }, "workload: wait-die needs AcquireTimeoutNS"},
		{"timeout-backoff without a deadline", txn, func(c *Config) { c.TxnPolicy, c.AcquireTimeout = "timeout-backoff", 0 }, "workload: timeout-backoff needs AcquireTimeoutNS"},
		{"txn with a read share", txn, func(c *Config) { c.ReadPct = 10 }, "workload: TxnLocks excludes"},

		// Service deployment: cluster.Spec.Validate and the name parsers.
		{"open: threads 0", open, func(c *Config) { c.ThreadsPerNode = 0 }, "cluster: 0 workers per shard"},
		{"open: negative shards", open, func(c *Config) { c.SvcShards = -1 }, "cluster: -1 shards"},
		{"open: negative clients", open, func(c *Config) { c.Clients = -1 }, "cluster: client population"},
		{"open: negative queue cap", open, func(c *Config) { c.SvcQueueCap = -1 }, "cluster: queue capacity"},
		{"open: queue cap past the ring bound", open, func(c *Config) { c.SvcQueueCap = 1<<20 + 1 }, "cluster: queue capacity"},
		{"open: read share 101", open, func(c *Config) { c.ReadPct = 101 }, "cluster: read share"},
		{"open: negative timeout", open, func(c *Config) { c.AcquireTimeout = -1 }, "cluster: negative duration"},
		{"open: burst on without off", open, func(c *Config) { c.BurstOn = time.Microsecond }, "cluster: burst phases"},
		{"open: unknown placement (was: Run only)", open, func(c *Config) { c.SvcPlacement = "nope" }, "cluster: unknown placement"},
		{"open: unknown admission (was: Run only)", open, func(c *Config) { c.SvcAdmission = "lifo" }, "cluster: unknown admission"},

		// Algorithm and budgets: locks.ByName.
		{"unknown algorithm (was: Run only)", closed, func(c *Config) { c.Algorithm = "nope" }, "locks: unknown algorithm"},
		{"open: unknown algorithm", open, func(c *Config) { c.Algorithm = "nope" }, "locks: unknown algorithm"},
		{"half-set RW budgets (was: Run only)", closed, func(c *Config) { c.ReadBudget = 8 }, "locks: RW budgets"},
		{"half-set ALock budgets (was: a panic inside the run)", closed, func(c *Config) { c.LocalBudget = 5 }, "core: budgets must be positive"},

		// Cost model: model.Params.Validate.
		{"model with a zeroed field", closed, func(c *Config) { c.Model = badModel }, "RemoteWireNS"},
	}
	for _, row := range rows {
		cfg := row.base()
		row.mut(&cfg)
		vErr := cfg.Validate()
		_, rErr := Run(cfg)
		if (vErr == nil) != (rErr == nil) {
			t.Errorf("%s: Validate says %v, Run says %v", row.name, vErr, rErr)
			continue
		}
		switch {
		case row.want == "" && vErr != nil:
			t.Errorf("%s: rejected: %v", row.name, vErr)
		case row.want != "" && vErr == nil:
			t.Errorf("%s: accepted", row.name)
		case row.want != "" && (!strings.Contains(vErr.Error(), row.want) || vErr.Error() != rErr.Error()):
			t.Errorf("%s: Validate %q, Run %q, want both to mention %q", row.name, vErr, rErr, row.want)
		}
	}
}
