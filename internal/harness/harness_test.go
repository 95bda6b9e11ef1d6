package harness

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"alock/internal/model"
)

// quickCfg returns a fast configuration for functional tests.
func quickCfg(algo string) Config {
	return Config{
		Algorithm:      algo,
		Nodes:          3,
		ThreadsPerNode: 4,
		Locks:          30,
		LocalityPct:    90,
		WarmupNS:       100_000,
		MeasureNS:      800_000,
		TargetOps:      8_000,
		Seed:           1,
	}
}

func TestRunSmoke(t *testing.T) {
	for _, algo := range []string{"alock", "spinlock", "mcs"} {
		r, err := Run(quickCfg(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Ops == 0 || r.Throughput <= 0 {
			t.Errorf("%s: no ops recorded: %+v", algo, r)
		}
		if r.Latency.Count != r.Ops {
			t.Errorf("%s: latency count %d != ops %d", algo, r.Latency.Count, r.Ops)
		}
		if len(r.CDF) == 0 {
			t.Errorf("%s: empty CDF", algo)
		}
		if r.NIC.Verbs == 0 && algo != "alock" {
			t.Errorf("%s: competitors must generate verbs", algo)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickCfg("alock"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg("alock"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Throughput != b.Throughput || a.SpanNS != b.SpanNS {
		t.Fatalf("nondeterministic: %v vs %v ops, %v vs %v tput",
			a.Ops, b.Ops, a.Throughput, b.Throughput)
	}
	if a.Latency != b.Latency {
		t.Fatalf("nondeterministic latency: %+v vs %+v", a.Latency, b.Latency)
	}
}

func TestRunSeedChangesSchedule(t *testing.T) {
	c1 := quickCfg("alock")
	c2 := quickCfg("alock")
	c2.Seed = 99
	a, _ := Run(c1)
	b, _ := Run(c2)
	if a.Ops == b.Ops && a.Latency.MeanNS == b.Latency.MeanNS {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestWithDefaultsKeepsCallerModel(t *testing.T) {
	// Regression: withDefaults used LocalReadNS == 0 as the "no model"
	// sentinel, clobbering any caller-supplied model that happened to leave
	// that one field zero. Only the fully zero-valued model means default.
	custom := model.Uniform(5)
	custom.LocalReadNS = 0 // invalid on purpose, but unmistakably caller-supplied
	c := quickCfg("alock")
	c.Model = custom
	got := c.withDefaults()
	if got.Model != custom {
		t.Fatalf("caller-supplied model was replaced: got %+v", got.Model)
	}
	// And Run must surface the model's own validation error, not silently
	// substitute CX3.
	if _, err := Run(c); err == nil {
		t.Fatal("invalid caller model accepted (was it clobbered by CX3?)")
	}

	var def Config
	if d := def.withDefaults(); d.Model != model.CX3() {
		t.Fatalf("zero-valued model did not default to CX3: %+v", d.Model)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Nodes = 17 }, // 4-bit node IDs
		func(c *Config) { c.ThreadsPerNode = 0 },
		func(c *Config) { c.Locks = 0 },
		func(c *Config) { c.LocalityPct = 101 },
		func(c *Config) { c.Algorithm = "nope" },
	}
	for i, mut := range bad {
		c := quickCfg("alock")
		mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestALockStatsExposed(t *testing.T) {
	r, err := Run(quickCfg("alock"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Lock.Acquires == 0 {
		t.Fatal("alock runs must expose internal stats")
	}
	if r.Lock.LocalOps+r.Lock.RemoteOps != r.Lock.Acquires {
		t.Fatalf("cohort split inconsistent: %+v", r.Lock)
	}
	// ~90% locality must show up in the cohort classification.
	frac := float64(r.Lock.LocalOps) / float64(r.Lock.Acquires)
	if frac < 0.82 || frac > 0.98 {
		t.Errorf("local fraction %.2f, expected ~0.90", frac)
	}
}

func TestTargetOpsStopsEarly(t *testing.T) {
	c := quickCfg("alock")
	c.TargetOps = 500
	c.MeasureNS = 1 << 40 // effectively unbounded horizon
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops < 500 || r.Ops > 500+int64(c.Nodes*c.ThreadsPerNode) {
		t.Fatalf("ops = %d, want ~500 (early stop)", r.Ops)
	}
}

func TestRecordedSpanSemantics(t *testing.T) {
	// Full-window run: anchored at the warmup boundary.
	if got := recordedSpan(5_000, 9_000, 1_000, false); got != 8_000 {
		t.Errorf("full-window span = %d, want 8000", got)
	}
	// TargetOps-cut run: first to last recorded completion, so a late
	// first completion does not deflate throughput.
	if got := recordedSpan(5_000, 9_000, 1_000, true); got != 4_000 {
		t.Errorf("cut-short span = %d, want 4000", got)
	}
	// Degenerate spans clamp to 1ns.
	if got := recordedSpan(9_000, 9_000, 1_000, true); got != 1 {
		t.Errorf("single-op span = %d, want 1", got)
	}
	if got := recordedSpan(0, 0, 1_000, false); got != 1 {
		t.Errorf("empty-run span = %d, want 1", got)
	}
}

func TestUnreachedTargetKeepsWarmupAnchor(t *testing.T) {
	// A TargetOps the window expires under is NOT a cut-short run: the
	// span must stay warmup-anchored, identical to the target-free run.
	c := quickCfg("alock")
	c.TargetOps = 0
	base, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.TargetOps = 1 << 40 // unreachable within the window
	capped, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Ops >= c.TargetOps {
		t.Fatalf("test is vacuous: target reached (%d ops)", capped.Ops)
	}
	if capped.SpanNS != base.SpanNS || capped.Throughput != base.Throughput {
		t.Errorf("unreached target changed the span: %d vs %d ns (tput %v vs %v)",
			capped.SpanNS, base.SpanNS, capped.Throughput, base.Throughput)
	}
}

func TestTargetOpsSpanIgnoresLateStart(t *testing.T) {
	// Regression: Run computed firstRec but never used it, anchoring
	// SpanNS at the warmup boundary even when TargetOps cut the run
	// short. One thread with 200us think time starts recording late
	// (first recorded completion ~200us, warmup boundary 100us); with
	// TargetOps=3 the completions sit ~200us apart, so the recorded span
	// is ~400us — the old warmup anchor would report >=500us.
	c := Config{
		Algorithm:      "alock",
		Nodes:          1,
		ThreadsPerNode: 1,
		Locks:          1,
		LocalityPct:    100,
		Think:          200 * time.Microsecond,
		WarmupNS:       100_000,
		MeasureNS:      1 << 40,
		TargetOps:      3,
		Seed:           1,
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 3 {
		t.Fatalf("ops = %d, want 3", r.Ops)
	}
	if r.SpanNS < 400_000 || r.SpanNS >= 500_000 {
		t.Fatalf("SpanNS = %d, want ~400us (>=500us means warmup-anchored)", r.SpanNS)
	}
}

func TestRWBudgetsForwarded(t *testing.T) {
	base := quickCfg("rw-budget")
	base.ReadPct = 70
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.ReadBudget, tuned.WriteBudget = 1, 1
	b, err := Run(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops == b.Ops && a.Latency == b.Latency {
		t.Error("custom RW budgets did not change the run (not forwarded?)")
	}
	// rw-queue accepts the same knobs.
	q := quickCfg("rw-queue")
	q.ReadPct = 70
	q.ReadBudget, q.WriteBudget = 2, 2
	if _, err := Run(q); err != nil {
		t.Fatalf("rw-queue with custom budgets: %v", err)
	}
	// A partially-set budget pair is rejected, not silently defaulted.
	bad := base
	bad.WriteBudget = 0
	bad.ReadBudget = 8
	if _, err := Run(bad); err == nil {
		t.Error("partial RW budget config accepted")
	}
}

func TestBudgetsForwarded(t *testing.T) {
	c := quickCfg("alock")
	c.LocalBudget, c.RemoteBudget = 1, 1
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lock.Reacquires == 0 {
		t.Fatal("budget-1 run should reacquire")
	}
}

func TestBurstAndHomeSkewConfigs(t *testing.T) {
	burst := quickCfg("alock")
	burst.BurstOn = 30 * time.Microsecond
	burst.BurstOff = 30 * time.Microsecond
	burst.TargetOps = 0 // run the full window so the duty cycle bites
	steady := quickCfg("alock")
	steady.TargetOps = 0
	rb, err := Run(burst)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(steady)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Ops == 0 {
		t.Fatal("bursty run recorded nothing")
	}
	if rb.Ops >= rs.Ops {
		t.Errorf("50%% duty cycle did not reduce ops: bursty=%d steady=%d", rb.Ops, rs.Ops)
	}

	skew := quickCfg("alock")
	skew.HomeSkewPct = 70
	rk, err := Run(skew)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Ops == 0 {
		t.Fatal("skewed-home run recorded nothing")
	}

	bad := quickCfg("alock")
	bad.BurstOn = time.Microsecond // off phase missing
	if _, err := Run(bad); err == nil {
		t.Error("half-specified burst accepted")
	}
	bad2 := quickCfg("alock")
	bad2.HomeSkewPct = 101
	if _, err := Run(bad2); err == nil {
		t.Error("home skew 101%% accepted")
	}
}

func TestReadWriteWorkloadConfigs(t *testing.T) {
	// Native RW algorithm: both classes recorded, split consistent.
	c := quickCfg("rw-budget")
	c.ReadPct = 80
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadOps == 0 || r.WriteOps == 0 {
		t.Fatalf("class starved: reads=%d writes=%d", r.ReadOps, r.WriteOps)
	}
	if r.ReadOps+r.WriteOps != r.Ops {
		t.Fatalf("split %d+%d != ops %d", r.ReadOps, r.WriteOps, r.Ops)
	}
	if r.ReadLatency.Count != r.ReadOps || r.WriteLatency.Count != r.WriteOps {
		t.Fatal("per-class summaries out of sync with per-class ops")
	}

	// Exclusive algorithm under a read mix: degrades, still correct.
	d := quickCfg("alock")
	d.ReadPct = 80
	rd, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Ops == 0 || rd.ReadOps+rd.WriteOps != rd.Ops {
		t.Fatalf("degraded RW run inconsistent: %d ops, %d+%d split",
			rd.Ops, rd.ReadOps, rd.WriteOps)
	}

	// Exclusive-only config records everything as writes.
	rx, err := Run(quickCfg("alock"))
	if err != nil {
		t.Fatal(err)
	}
	if rx.ReadOps != 0 || rx.WriteOps != rx.Ops {
		t.Fatalf("exclusive run split reads=%d writes=%d ops=%d", rx.ReadOps, rx.WriteOps, rx.Ops)
	}

	// Lease holds stretch the tail beyond the lease duration.
	lc := quickCfg("alock")
	lc.LeaseProb = 0.05
	lc.LeaseHold = 30 * time.Microsecond
	rl, err := Run(lc)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Latency.MaxNS < lc.LeaseHold.Nanoseconds() {
		t.Fatalf("lease holds invisible: max latency %dns < hold %v", rl.Latency.MaxNS, lc.LeaseHold)
	}

	// Validation rejects malformed RW/lease configs.
	for i, mut := range []func(*Config){
		func(c *Config) { c.ReadPct = -1 },
		func(c *Config) { c.ReadPct = 101 },
		func(c *Config) { c.LeaseProb = 0.5 }, // hold missing
		func(c *Config) { c.LeaseHold = time.Microsecond },
		func(c *Config) { c.LeaseProb = 1.5; c.LeaseHold = time.Microsecond },
	} {
		bad := quickCfg("alock")
		mut(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("case %d: malformed RW/lease config accepted", i)
		}
	}
}

// --- Table 1 ---

// TestTokenAxisConfigs pins the acquisition-token plumbing end to end:
// deadlines produce timeout counts with their own latency digest, abandons
// produce matching fenced releases, pair ops complete, and the validator
// rejects half-set failure knobs.
func TestTokenAxisConfigs(t *testing.T) {
	cfg := quickCfg("mcs")
	cfg.Locks = 3 // hot enough that a tight deadline fires
	// The deadline sits near the median contended acquire latency so both
	// outcomes occur in volume: plenty of timeouts AND enough successful
	// acquisitions for the abandon knob to fire.
	cfg.AcquireTimeout = 30 * time.Microsecond
	cfg.AbandonProb = 0.01
	cfg.AbandonHold = 40 * time.Microsecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeouts == 0 {
		t.Error("no timeouts under a tight deadline on hot locks")
	}
	if r.TimeoutLatency.Count != r.Timeouts {
		t.Errorf("timeout digest count %d != timeouts %d", r.TimeoutLatency.Count, r.Timeouts)
	}
	if r.Abandons == 0 || r.FencedReleases != r.Abandons {
		t.Errorf("abandons=%d fenced=%d, want equal and non-zero", r.Abandons, r.FencedReleases)
	}
	if r.Ops == 0 {
		t.Error("non-abandoning work made no progress (no recovery)")
	}

	pair := quickCfg("alock")
	pair.PairProb = 0.2
	rp, err := Run(pair)
	if err != nil {
		t.Fatal(err)
	}
	if rp.PairOps == 0 || rp.PairOps > rp.Ops {
		t.Errorf("pair ops %d of %d", rp.PairOps, rp.Ops)
	}
	if rp.Timeouts != 0 || rp.FencedReleases != 0 {
		t.Errorf("pair-only config leaked failure outcomes: %+v", rp)
	}

	bad := quickCfg("mcs")
	bad.AbandonProb = 0.01 // no hold, no timeout
	if _, err := Run(bad); err == nil {
		t.Error("half-set abandon config accepted")
	}
	bad = quickCfg("mcs")
	bad.AbandonProb = 0.01
	bad.AbandonHold = 10 * time.Microsecond // still no timeout: waiters wedge
	if _, err := Run(bad); err == nil {
		t.Error("abandon without acquire timeout accepted")
	}
}

// TestTimedRunsDeterministic: the failure axis must stay bit-reproducible
// (the CI serial-vs-parallel diff depends on it).
func TestTimedRunsDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := quickCfg("rw-queue")
		cfg.Locks = 5
		cfg.ReadPct = 50
		cfg.AcquireTimeout = 10 * time.Microsecond
		cfg.AbandonProb = 0.01
		cfg.AbandonHold = 50 * time.Microsecond
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Timeouts != b.Timeouts || a.Abandons != b.Abandons ||
		a.FencedReleases != b.FencedReleases || a.Events != b.Events {
		t.Fatalf("timed runs nondeterministic: %+v vs %+v", a, b)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	expected := map[string]bool{
		"Read/Read": true, "Read/Write": true, "Read/CAS": true,
		"Write/Read": true, "Write/Write": true, "Write/CAS": false,
		"RMW/Read": true, "RMW/Write": true, "RMW/CAS": false,
	}
	for _, cell := range Table1() {
		key := cell.LocalClass + "/" + cell.RemoteOp
		want, ok := expected[key]
		if !ok {
			t.Errorf("unexpected cell %s", key)
			continue
		}
		if cell.Atomic != want {
			t.Errorf("Table 1 %s: measured atomic=%v, paper says %v", key, cell.Atomic, want)
		}
	}
}

// Property: Run is total over valid random configurations — no panics, and
// accounting identities hold.
func TestQuickRunAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, rawNodes, rawThreads, rawLocks, rawLoc uint8) bool {
		c := Config{
			Algorithm:      "alock",
			Nodes:          int(rawNodes%4) + 1,
			ThreadsPerNode: int(rawThreads%3) + 1,
			Locks:          int(rawLocks%40) + 1,
			LocalityPct:    int(rawLoc % 101),
			WarmupNS:       50_000,
			MeasureNS:      300_000,
			TargetOps:      2_000,
			Seed:           seed,
		}
		r, err := Run(c)
		if err != nil {
			return false
		}
		return r.Ops >= 0 && r.Latency.Count == r.Ops && r.SpanNS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestEngineShardsBitIdentical: a harness run must be bit-identical to the
// serial executor's at every engine width, modulo the knob itself. Every
// config but wait-die runs the windowed executor (RunsWindowed) — on the Run
// caller alone at 0 and 1 — and the TargetOps variant hands its last windows
// to the serial loop; a wait-die config runs the serial executor at any width.
func TestEngineShardsBitIdentical(t *testing.T) {
	for _, algo := range []string{"alock", "mcs"} {
		base := quickCfg(algo)
		free := base
		free.TargetOps = 0 // windowed to the end
		for _, cfg := range []Config{base, free} {
			var want Result
			onSerialExecutor(func() { want = MustRun(cfg) })
			for _, shards := range []int{0, 1, 4} {
				scfg := cfg
				scfg.EngineShards = shards
				if !scfg.RunsWindowed() {
					t.Errorf("%s (TargetOps=%d, shards=%d): RunsWindowed = false", algo, cfg.TargetOps, shards)
				}
				got, err := Run(scfg)
				if err != nil {
					t.Fatal(err)
				}
				got.Config.EngineShards = 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s (TargetOps=%d): result diverged between the serial executor and shards=%d",
						algo, cfg.TargetOps, shards)
				}
			}
		}
	}
	waitDie := diningConfig("mcs", "wait-die")
	waitDie.EngineShards = 4
	if waitDie.RunsWindowed() {
		t.Error("wait-die config reports RunsWindowed; its age table needs the serial executor")
	}
}
