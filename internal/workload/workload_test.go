package workload

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/model"
	"alock/internal/sim"
)

// TestThreadResultSize: RunEnv returns a ThreadResult by value into the frame
// of the workload coroutine that calls it, so the struct's size is stack every
// simulated thread carries. When its six histograms held their bucket counts
// inline it was about 35 KiB, which forced every workload coroutine onto a
// 64 KiB stack; with the counts allocated on a histogram's first sample it is
// a few hundred bytes.
func TestThreadResultSize(t *testing.T) {
	if size := unsafe.Sizeof(ThreadResult{}); size > 1024 {
		t.Errorf("unsafe.Sizeof(ThreadResult{}) = %d B, want at most 1024", size)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{LocalityPct: 90}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{LocalityPct: -1},
		{LocalityPct: 101},
		{LocalityPct: 50, CSWork: -time.Nanosecond},
		{LocalityPct: 50, Think: -time.Nanosecond},
		{LocalityPct: 50, BurstOnNS: 1000},              // off phase missing
		{LocalityPct: 50, BurstOffNS: 1000},             // on phase missing
		{LocalityPct: 50, BurstOnNS: -1, BurstOffNS: 1}, // negative
		{LocalityPct: 50, ReadPct: -1},
		{LocalityPct: 50, ReadPct: 101},
		{LocalityPct: 50, LeaseProb: 1.5, LeaseHoldNS: 1000},
		{LocalityPct: 50, LeaseProb: 0.1},    // hold missing
		{LocalityPct: 50, LeaseHoldNS: 1000}, // probability missing
		{LocalityPct: 50, LeaseProb: -0.1, LeaseHoldNS: 1000},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func runLoop(t *testing.T, spec Spec, horizon int64) ThreadResult {
	t.Helper()
	return runLoopWith(t, locks.NewALockProvider(), spec, horizon)
}

func runLoopWith(t *testing.T, prov locks.Provider, spec Spec, horizon int64) ThreadResult {
	t.Helper()
	e := sim.New(2, 1<<18, model.Uniform(10), 1)
	table := locktable.New(e.Space(), 10)
	var res ThreadResult
	ft := locks.NewFenceTable()
	e.Spawn(0, func(ctx api.Ctx) {
		h := locks.TokenHandleFor(prov, ctx, ft)
		res = Run(ctx, h, table, spec, nil, 0, nil)
	})
	e.Run(horizon)
	return res
}

func TestWarmupExcluded(t *testing.T) {
	res := runLoop(t, Spec{LocalityPct: 100, WarmupNS: 50_000}, 100_000)
	if res.TotalOps <= res.Ops {
		t.Fatalf("warmup ops not excluded: total=%d recorded=%d", res.TotalOps, res.Ops)
	}
	if res.Ops == 0 {
		t.Fatal("no recorded ops")
	}
	if res.FirstRecNS < 50_000 {
		t.Fatalf("first recorded completion %d inside warmup", res.FirstRecNS)
	}
}

func TestLatencyRecorded(t *testing.T) {
	res := runLoop(t, Spec{LocalityPct: 100}, 80_000)
	if res.Latency.Count() != res.Ops {
		t.Fatalf("latency count %d != ops %d", res.Latency.Count(), res.Ops)
	}
	if res.Latency.Min() <= 0 {
		t.Fatal("latencies must be positive")
	}
	if res.LastRecNS < res.FirstRecNS {
		t.Fatal("recording span inverted")
	}
}

func TestCSWorkLengthensOps(t *testing.T) {
	fast := runLoop(t, Spec{LocalityPct: 100}, 200_000)
	slow := runLoop(t, Spec{LocalityPct: 100, CSWork: 2 * time.Microsecond}, 200_000)
	if slow.Latency.Mean() < fast.Latency.Mean()+1500 {
		t.Fatalf("CS work not reflected: fast mean %.0f, slow mean %.0f",
			fast.Latency.Mean(), slow.Latency.Mean())
	}
}

func TestThinkReducesOpsNotLatency(t *testing.T) {
	busy := runLoop(t, Spec{LocalityPct: 100}, 200_000)
	idle := runLoop(t, Spec{LocalityPct: 100, Think: 5 * time.Microsecond}, 200_000)
	if idle.TotalOps >= busy.TotalOps {
		t.Fatalf("think time did not reduce op count: %d vs %d", idle.TotalOps, busy.TotalOps)
	}
}

func TestBurstPhasesReduceOps(t *testing.T) {
	steady := runLoop(t, Spec{LocalityPct: 100}, 400_000)
	// 50% duty cycle: ~half the steady operation count.
	bursty := runLoop(t, Spec{
		LocalityPct: 100,
		BurstOnNS:   20_000,
		BurstOffNS:  20_000,
	}, 400_000)
	if bursty.TotalOps >= steady.TotalOps*3/4 {
		t.Fatalf("burst phases did not throttle: steady=%d bursty=%d",
			steady.TotalOps, bursty.TotalOps)
	}
	if bursty.TotalOps < steady.TotalOps/5 {
		t.Fatalf("burst throttled too hard for a 50%% duty cycle: steady=%d bursty=%d",
			steady.TotalOps, bursty.TotalOps)
	}
}

func TestBurstDeterministic(t *testing.T) {
	spec := Spec{LocalityPct: 80, BurstOnNS: 15_000, BurstOffNS: 10_000}
	a := runLoop(t, spec, 300_000)
	b := runLoop(t, spec, 300_000)
	if a.TotalOps != b.TotalOps || a.Ops != b.Ops {
		t.Fatalf("bursty runs nondeterministic: %+v vs %+v", a, b)
	}
}

func TestReadShareSplitsClasses(t *testing.T) {
	res := runLoopWith(t, locks.NewRWBudgetProvider(),
		Spec{LocalityPct: 100, ReadPct: 80}, 400_000)
	if res.ReadOps == 0 || res.WriteOps == 0 {
		t.Fatalf("both classes must record: reads=%d writes=%d", res.ReadOps, res.WriteOps)
	}
	if res.ReadOps+res.WriteOps != res.Ops {
		t.Fatalf("class split %d+%d != ops %d", res.ReadOps, res.WriteOps, res.Ops)
	}
	if res.ReadLatency.Count() != res.ReadOps || res.WriteLatency.Count() != res.WriteOps {
		t.Fatal("per-class latency counts out of sync with per-class ops")
	}
	frac := float64(res.ReadOps) / float64(res.Ops)
	if frac < 0.70 || frac > 0.90 {
		t.Errorf("read fraction %.2f, want ~0.80", frac)
	}
	// Exclusive-only specs record everything as writes.
	excl := runLoop(t, Spec{LocalityPct: 100}, 100_000)
	if excl.ReadOps != 0 || excl.WriteOps != excl.Ops {
		t.Errorf("exclusive spec split reads=%d writes=%d ops=%d",
			excl.ReadOps, excl.WriteOps, excl.Ops)
	}
}

func TestLeaseHoldsStretchTail(t *testing.T) {
	base := runLoop(t, Spec{LocalityPct: 100}, 400_000)
	leased := runLoop(t, Spec{
		LocalityPct: 100,
		LeaseProb:   0.05,
		LeaseHoldNS: 20_000,
	}, 400_000)
	if leased.Ops == 0 {
		t.Fatal("leased run recorded nothing")
	}
	// ~5% of ops hold for 20us: the lease run's max must include a hold
	// span the base run never sees.
	if leased.Latency.Max() < base.Latency.Max()+15_000 {
		t.Fatalf("lease holds not visible in tail: base max=%d leased max=%d",
			base.Latency.Max(), leased.Latency.Max())
	}
	if leased.TotalOps >= base.TotalOps {
		t.Errorf("long holds did not cost throughput: %d vs %d ops",
			leased.TotalOps, base.TotalOps)
	}
}

func TestLeasesAreWriteSide(t *testing.T) {
	// A lease models ownership: even in an all-read mix, leased operations
	// acquire exclusive mode and are recorded as writes.
	res := runLoopWith(t, locks.NewRWBudgetProvider(), Spec{
		LocalityPct: 100,
		ReadPct:     100,
		LeaseProb:   0.10,
		LeaseHoldNS: 5_000,
	}, 600_000)
	if res.WriteOps == 0 {
		t.Fatal("no leases recorded as writes in an all-read mix")
	}
	if res.ReadOps == 0 {
		t.Fatal("read share vanished")
	}
	frac := float64(res.WriteOps) / float64(res.Ops)
	if frac < 0.04 || frac > 0.20 {
		t.Errorf("write (lease) fraction %.3f, want ~0.10", frac)
	}
	// Every write is a lease here, so the write-side median must reflect
	// the hold duration.
	if res.WriteLatency.Quantile(0.5) < 5_000 {
		t.Errorf("write-side p50 %dns below the 5us lease hold", res.WriteLatency.Quantile(0.5))
	}
}

func TestReadHeavyOutpacesExclusiveOnRWLock(t *testing.T) {
	// The point of the RW axis: on a native RW lock, a read-heavy mix
	// admits overlapping holders and completes more operations than the
	// same spec with every acquire exclusive. Contend 4 threads on 1 lock.
	run := func(readPct int) int64 {
		e := sim.New(2, 1<<18, model.Uniform(10), 1)
		table := locktable.New(e.Space(), 1)
		prov := locks.NewRWBudgetProvider()
		var total int64
		ft := locks.NewFenceTable()
		for i := 0; i < 4; i++ {
			node := i % 2
			e.Spawn(node, func(ctx api.Ctx) {
				h := locks.TokenHandleFor(prov, ctx, ft)
				r := Run(ctx, h, table, Spec{
					LocalityPct: 50,
					ReadPct:     readPct,
					CSWork:      time.Microsecond,
				}, nil, 0, nil)
				total += r.TotalOps
			})
		}
		e.Run(500_000)
		return total
	}
	excl, readHeavy := run(0), run(95)
	if readHeavy <= excl {
		t.Fatalf("95%% read mix (%d ops) not faster than exclusive (%d ops) on an RW lock",
			readHeavy, excl)
	}
}

func TestSpecValidateTokenFeatures(t *testing.T) {
	good := Spec{LocalityPct: 90, AcquireTimeoutNS: 10_000,
		AbandonProb: 0.01, AbandonHoldNS: 50_000, PairProb: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{LocalityPct: 50, AcquireTimeoutNS: -1},
		{LocalityPct: 50, AbandonProb: 1.5, AbandonHoldNS: 1000},
		{LocalityPct: 50, AbandonProb: 0.1},    // hold missing
		{LocalityPct: 50, AbandonHoldNS: 1000}, // probability missing
		{LocalityPct: 50, PairProb: -0.1},
		{LocalityPct: 50, PairProb: 1.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// timedProv returns an MCS provider speaking the timed protocol (direct
// workload tests must match spec deadlines with a timed provider, the way
// the harness does via locks.Options.Timed).
func timedProv(t *testing.T) locks.Provider {
	t.Helper()
	p, err := locks.ByName("mcs", locks.Options{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTimeoutsRecordedUnderContention(t *testing.T) {
	// 4 threads on 1 lock with 5us critical sections: a 4us deadline is
	// below the typical queue wait, so timeouts must appear — recorded
	// separately from completed ops, with their own latency histogram.
	e := sim.New(2, 1<<18, model.Uniform(10), 1)
	table := locktable.New(e.Space(), 1)
	prov := timedProv(t)
	ft := locks.NewFenceTable()
	results := make([]ThreadResult, 4)
	for i := 0; i < 4; i++ {
		slot := i
		e.Spawn(i%2, func(ctx api.Ctx) {
			h := locks.TokenHandleFor(prov, ctx, ft)
			results[slot] = Run(ctx, h, table, Spec{
				LocalityPct:      50,
				CSWork:           5 * time.Microsecond,
				AcquireTimeoutNS: 4_000,
			}, nil, 0, nil)
		})
	}
	e.Run(500_000)
	var ops, timeouts, tlCount int64
	for _, r := range results {
		ops += r.Ops
		timeouts += r.Timeouts
		tlCount += r.TimeoutLatency.Count()
	}
	if timeouts == 0 {
		t.Fatal("no timeouts under a sub-service-time deadline")
	}
	if ops == 0 {
		t.Fatal("no completed ops: the lock must survive timeouts")
	}
	if tlCount != timeouts {
		t.Fatalf("timeout histogram count %d != timeouts %d", tlCount, timeouts)
	}
}

func TestAbandonsProduceFencedReleases(t *testing.T) {
	res := runLoopWith(t, timedProv(t), Spec{
		LocalityPct:   100,
		WarmupNS:      20_000,
		AbandonProb:   1, // every op crashes
		AbandonHoldNS: 2_000,
	}, 300_000)
	if res.Abandons == 0 {
		t.Fatal("no abandons with AbandonProb=1")
	}
	if res.Ops != 0 {
		t.Fatalf("abandoned ops counted as completed: %d", res.Ops)
	}
	if res.FencedReleases != res.Abandons {
		t.Fatalf("every abandon must fence its late release: abandons=%d fenced=%d",
			res.Abandons, res.FencedReleases)
	}
	if res.TotalOps <= res.Abandons {
		t.Fatalf("warmup abandons leaked into recorded counts: total=%d abandons=%d",
			res.TotalOps, res.Abandons)
	}
}

func TestPairOpsHoldBothAndComplete(t *testing.T) {
	res := runLoop(t, Spec{LocalityPct: 100, PairProb: 0.5}, 300_000)
	if res.PairOps == 0 {
		t.Fatal("no two-lock transactions with PairProb=0.5")
	}
	if res.PairOps > res.Ops {
		t.Fatalf("pair ops %d exceed ops %d", res.PairOps, res.Ops)
	}
	frac := float64(res.PairOps) / float64(res.Ops)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("pair fraction %.2f, want ~0.50", frac)
	}
	if res.FencedReleases != 0 {
		t.Errorf("%d valid pair releases fenced", res.FencedReleases)
	}
}

// TestFeatureFreeSpecIgnoresTokenKnobs pins the replay contract at the
// workload level: a spec without timeout/abandon/pair features must
// produce the identical schedule whether those fields exist or not —
// i.e. the zero-valued features draw nothing and record nothing.
func TestFeatureFreeSpecIgnoresTokenKnobs(t *testing.T) {
	res := runLoop(t, Spec{LocalityPct: 80}, 200_000)
	if res.Timeouts != 0 || res.Abandons != 0 || res.FencedReleases != 0 || res.PairOps != 0 {
		t.Fatalf("feature-free spec recorded token outcomes: %+v", res)
	}
	again := runLoop(t, Spec{LocalityPct: 80}, 200_000)
	if res.TotalOps != again.TotalOps || res.Ops != again.Ops {
		t.Fatalf("feature-free runs nondeterministic: %d/%d vs %d/%d",
			res.TotalOps, res.Ops, again.TotalOps, again.Ops)
	}
}

func TestSharedCounterStopsRun(t *testing.T) {
	e := sim.New(2, 1<<18, model.Uniform(10), 1)
	table := locktable.New(e.Space(), 10)
	prov := locks.NewALockProvider()
	var opsDone atomic.Int64
	ft := locks.NewFenceTable()
	results := make([]ThreadResult, 4)
	for i := 0; i < 4; i++ {
		slot := i
		e.Spawn(i%2, func(ctx api.Ctx) {
			h := locks.TokenHandleFor(prov, ctx, ft)
			results[slot] = Run(ctx, h, table, Spec{LocalityPct: 50}, &opsDone, 100, e)
		})
	}
	e.Run(1 << 40) // would run forever without the target
	var total int64
	for _, r := range results {
		total += r.Ops
	}
	if total < 100 || total > 104 {
		t.Fatalf("total recorded ops = %d, want ~100", total)
	}
}

func TestBadSpecPanics(t *testing.T) {
	e := sim.New(1, 1<<12, model.Uniform(1), 1)
	table := locktable.New(e.Space(), 2)
	prov := locks.NewALockProvider()
	e.Spawn(0, func(ctx api.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("invalid spec did not panic")
			}
		}()
		Run(ctx, locks.TokenHandleFor(prov, ctx, locks.NewFenceTable()), table,
			Spec{LocalityPct: -5}, nil, 0, nil)
	})
	e.Run(1 << 40)
}
