package core_test

import (
	"testing"
	"testing/quick"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/locks"
	"alock/internal/locktest"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// TestLayoutFigure3 pins the 64-byte lock layout to the paper's Figure 3:
// tail_r at byte 0x00, tail_l at 0x10, victim at 0x20, padded to 0x40.
func TestLayoutFigure3(t *testing.T) {
	if core.WordTailR*8 != 0x00 {
		t.Errorf("tail_r at byte %#x, want 0x00", core.WordTailR*8)
	}
	if core.WordTailL*8 != 0x10 {
		t.Errorf("tail_l at byte %#x, want 0x10", core.WordTailL*8)
	}
	if core.WordVictim*8 != 0x20 {
		t.Errorf("victim at byte %#x, want 0x20", core.WordVictim*8)
	}
	if core.LockWords*8 != 0x40 {
		t.Errorf("lock size %#x bytes, want 0x40", core.LockWords*8)
	}
	l := ptr.Pack(2, 512)
	if core.TailPtr(l, api.CohortRemote) != l {
		t.Error("TailPtr(remote) must be the first word")
	}
	if core.TailPtr(l, api.CohortLocal) != l.Add(2) {
		t.Error("TailPtr(local) must be word 2")
	}
	if core.VictimPtr(l) != l.Add(4) {
		t.Error("VictimPtr must be word 4")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := core.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []core.Config{
		{LocalBudget: 0, RemoteBudget: 5},
		{LocalBudget: 5, RemoteBudget: 0},
		{LocalBudget: -1, RemoteBudget: 5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
}

func TestDefaultBudgetsMatchPaper(t *testing.T) {
	c := core.DefaultConfig()
	if c.LocalBudget != 5 || c.RemoteBudget != 20 {
		t.Fatalf("default budgets %d/%d, want 5/20 (Section 6.1)", c.LocalBudget, c.RemoteBudget)
	}
}

func TestUncontendedLocalAcquire(t *testing.T) {
	e := sim.New(2, 1<<16, model.Uniform(5), 1)
	l := e.Space().AllocLine(0)
	e.Spawn(0, func(ctx api.Ctx) {
		h := core.NewHandle(ctx, core.DefaultConfig())
		b := api.NewBlocking(h)
		b.Lock(l)
		if !core.IsLocked(ctx, l, api.CohortLocal) {
			t.Error("local tail should be set while held")
		}
		if core.IsLocked(ctx, l, api.CohortRemote) {
			t.Error("remote tail should be clear")
		}
		b.Unlock(l)
		if core.IsLocked(ctx, l, api.CohortLocal) {
			t.Error("local tail should clear after unlock")
		}
		st := h.Stats()
		if st.Acquires != 1 || st.LocalOps != 1 || st.RemoteOps != 0 {
			t.Errorf("stats = %+v", st)
		}
		if st.Passes != 0 {
			t.Errorf("uncontended acquire must not be a pass: %+v", st)
		}
	})
	e.Run(1 << 62)
}

func TestUncontendedRemoteAcquire(t *testing.T) {
	e := sim.New(2, 1<<16, model.CX3(), 1)
	l := e.Space().AllocLine(0)
	e.Spawn(1, func(ctx api.Ctx) {
		h := core.NewHandle(ctx, core.DefaultConfig())
		b := api.NewBlocking(h)
		b.Lock(l)
		b.Unlock(l)
		st := h.Stats()
		if st.RemoteOps != 1 || st.LocalOps != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
	e.Run(1 << 62)
}

func TestMutualExclusionMixedCohorts(t *testing.T) {
	locktest.CheckMutualExclusion(t, locks.NewALockProvider(), locktest.DefaultMutexConfig())
}

func TestMutualExclusionHighContentionOneLock(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.ThreadsPerNode = 4
	cfg.Iters = 80
	locktest.CheckMutualExclusion(t, locks.NewALockProvider(), cfg)
}

func TestMutualExclusionAllLocal(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Nodes = 1
	cfg.LocalityPct = 100
	cfg.ThreadsPerNode = 6
	locktest.CheckMutualExclusion(t, locks.NewALockProvider(), cfg)
}

func TestMutualExclusionAllRemoteCohort(t *testing.T) {
	// Locks all on node 0; threads all elsewhere: pure remote cohort.
	cfg := locktest.DefaultMutexConfig()
	cfg.Nodes = 3
	cfg.LocalityPct = 0
	locktest.CheckMutualExclusion(t, locks.NewALockProvider(), cfg)
}

func TestMutualExclusionSmallBudgets(t *testing.T) {
	// Budget 1 forces a Peterson reacquire on nearly every pass — the
	// fairness machinery is exercised constantly.
	cfg := locktest.DefaultMutexConfig()
	prov := &locks.ALockProvider{Cfg: core.Config{LocalBudget: 1, RemoteBudget: 1}}
	locktest.CheckMutualExclusion(t, prov, cfg)
	if agg := prov.AggregateStats(); agg.Reacquires == 0 {
		t.Error("budget-1 run should have reacquired at least once")
	}
}

func TestForceRemoteAblationStillMutex(t *testing.T) {
	prov, err := locks.ByName("alock-symmetric", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	locktest.CheckMutualExclusion(t, prov, locktest.DefaultMutexConfig())
}

func TestNoBudgetAblationStillMutex(t *testing.T) {
	prov, err := locks.ByName("alock-nobudget", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	locktest.CheckMutualExclusion(t, prov, locktest.DefaultMutexConfig())
}

// TestCohortRunLengthBounded checks the budget fairness bound: under
// continuous two-cohort contention on one lock, a cohort can take at most
// budget+1 consecutive critical sections (leader enters with a full
// budget, then passes budget-1 ... 0; the recipient of 0 must yield).
func TestCohortRunLengthBounded(t *testing.T) {
	const localBudget, remoteBudget = 3, 4
	prov := &locks.ALockProvider{Cfg: core.Config{
		LocalBudget:  localBudget,
		RemoteBudget: remoteBudget,
	}}
	cfg := locktest.DefaultMutexConfig()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 3
	cfg.Locks = 1 // on node 0: node 0's threads local, node 1's remote
	cfg.Iters = 150
	cfg.LocalityPct = 50 // irrelevant with one lock
	res := locktest.RunMutex(prov, cfg)

	classifyByCohort := func(tid int) int {
		// Thread IDs are assigned in spawn order: node 0 first.
		if tid < cfg.ThreadsPerNode {
			return int(api.CohortLocal)
		}
		return int(api.CohortRemote)
	}
	// Drop the uncontended tail (after one cohort finishes its quota, the
	// other legitimately runs alone).
	contended := locktest.TrimToContended(res.Entries[0], classifyByCohort)
	run := locktest.MaxRun(contended, classifyByCohort)
	// The bound holds strictly only while the other cohort is waiting;
	// allow one extra acquisition of slack for re-arrival gaps.
	bound := remoteBudget + 2
	if run > bound {
		t.Errorf("max same-cohort run = %d, want <= %d (budget fairness)", run, bound)
	}
	// Starvation-freedom: both cohorts made progress.
	var local, remote int
	for _, tid := range res.Entries[0] {
		if classifyByCohort(tid) == int(api.CohortLocal) {
			local++
		} else {
			remote++
		}
	}
	if local == 0 || remote == 0 {
		t.Errorf("a cohort starved: local=%d remote=%d", local, remote)
	}
}

// TestNoBudgetAblationUnfair demonstrates what the budget buys: without
// it, same-cohort runs are unbounded in practice.
func TestNoBudgetAblationUnfair(t *testing.T) {
	prov, err := locks.ByName("alock-nobudget", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := locktest.DefaultMutexConfig()
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 3
	cfg.Locks = 1
	cfg.Iters = 150
	res := locktest.RunMutex(prov, cfg)
	classify := func(tid int) int {
		if tid < cfg.ThreadsPerNode {
			return 0
		}
		return 1
	}
	run := locktest.MaxRun(locktest.TrimToContended(res.Entries[0], classify), classify)
	if run <= 8 {
		t.Errorf("expected long unfair runs without budget, max run = %d", run)
	}
}

func TestPassingDominatesUnderContention(t *testing.T) {
	// With many same-cohort threads on one lock, most acquisitions should
	// arrive via the MCS pass path (Section 6.2 credits ALock's
	// high-contention throughput to lock passing).
	prov := locks.NewALockProvider()
	cfg := locktest.DefaultMutexConfig()
	cfg.Nodes = 1
	cfg.ThreadsPerNode = 6
	cfg.Locks = 1
	cfg.LocalityPct = 100
	cfg.Iters = 200
	locktest.CheckMutualExclusion(t, prov, cfg)
	agg := prov.AggregateStats()
	if agg.Passes*2 < agg.Acquires {
		t.Errorf("passes=%d of acquires=%d; expected passing to dominate",
			agg.Passes, agg.Acquires)
	}
}

func TestHandleReuseAcrossLocks(t *testing.T) {
	e := sim.New(2, 1<<16, model.Uniform(5), 3)
	l0 := e.Space().AllocLine(0)
	l1 := e.Space().AllocLine(1)
	e.Spawn(0, func(ctx api.Ctx) {
		h := core.NewHandle(ctx, core.DefaultConfig())
		b := api.NewBlocking(h)
		for i := 0; i < 10; i++ {
			b.Lock(l0) // local
			b.Unlock(l0)
			b.Lock(l1) // remote
			b.Unlock(l1)
		}
		st := h.Stats()
		if st.LocalOps != 10 || st.RemoteOps != 10 {
			t.Errorf("stats = %+v", st)
		}
	})
	e.Run(1 << 62)
}

func TestNewHandleBadConfigPanics(t *testing.T) {
	e := sim.New(1, 1<<12, model.Uniform(1), 1)
	e.Spawn(0, func(ctx api.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("NewHandle with zero budgets did not panic")
			}
		}()
		core.NewHandle(ctx, core.Config{})
	})
	e.Run(1 << 62)
}

// Property: mutual exclusion holds across random schedules, localities and
// small budget choices.
func TestQuickMutualExclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, rawLoc uint8, rawLB, rawRB uint8) bool {
		cfg := locktest.DefaultMutexConfig()
		cfg.Seed = seed
		cfg.LocalityPct = int(rawLoc % 101)
		cfg.Iters = 60
		prov := &locks.ALockProvider{Cfg: core.Config{
			LocalBudget:  int64(rawLB%6) + 1,
			RemoteBudget: int64(rawRB%12) + 1,
		}}
		res := locktest.RunMutex(prov, cfg)
		want := int64(cfg.Nodes * cfg.ThreadsPerNode * cfg.Iters)
		return res.TotalOps == want && res.CounterSum == want && res.OwnerTramples == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
