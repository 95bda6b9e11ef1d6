package locks_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/locktest"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

func TestSpinlockMutualExclusion(t *testing.T) {
	locktest.CheckMutualExclusion(t, locks.SpinProvider{}, locktest.DefaultMutexConfig())
}

func TestSpinlockHighContention(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.Iters = 60
	locktest.CheckMutualExclusion(t, locks.SpinProvider{}, cfg)
}

func TestMCSMutualExclusion(t *testing.T) {
	locktest.CheckMutualExclusion(t, locks.MCSProvider{}, locktest.DefaultMutexConfig())
}

func TestMCSHighContention(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.Iters = 60
	locktest.CheckMutualExclusion(t, locks.MCSProvider{}, cfg)
}

func TestMCSFIFOUnderSingleQueue(t *testing.T) {
	// MCS is FIFO: with one lock and threads re-entering, no thread can
	// be overtaken twice in a row by the same competitor... the cheap
	// checkable property is progress balance: every thread completes its
	// full quota (the harness already asserts this via TotalOps).
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.ThreadsPerNode = 2
	cfg.Iters = 100
	locktest.CheckMutualExclusion(t, locks.MCSProvider{}, cfg)
}

// TestNaiveMixedLockViolatesTable1 is the negative control: a lock that
// mixes local CAS and remote rCAS on one word MUST break once remote RMW
// tearing is modeled. If this test ever "fails" (the naive lock staying
// correct), the engine has stopped modeling Table 1 and every other
// correctness result is suspect.
func TestNaiveMixedLockViolatesTable1(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 3
	cfg.Iters = 400
	cfg.Model.TornGapNS = 300 // generous window
	res := locktest.RunMutex(locks.NaiveMixedProvider{}, cfg)
	violated := res.CounterSum != res.TotalOps || res.OwnerTramples > 0
	if !violated {
		t.Fatal("naive mixed-RMW lock did not violate mutual exclusion under torn rCAS; " +
			"the Table 1 model is not being exercised")
	}
}

// TestNaiveMixedLockFineWithoutTearing sanity-checks the control's
// control: with tearing off (atomic rCAS — NOT real RDMA), the naive lock
// is a perfectly good spinlock.
func TestNaiveMixedLockFineWithoutTearing(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Model.TornRCAS = false
	cfg.Model.TornGapNS = 0
	locktest.CheckMutualExclusion(t, locks.NaiveMixedProvider{}, cfg)
}

// TestALockImmuneToTearing is the headline correctness claim: ALock never
// mixes RMW classes on one word, so tearing cannot hurt it. (Also covered
// in internal/core's tests; repeated here next to the negative control.)
func TestALockImmuneToTearing(t *testing.T) {
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.Nodes = 2
	cfg.ThreadsPerNode = 3
	cfg.Iters = 400
	cfg.Model.TornGapNS = 300
	locktest.CheckMutualExclusion(t, locks.NewALockProvider(), cfg)
}

func TestRegistryNames(t *testing.T) {
	names := locks.Names()
	if len(names) != 8 {
		t.Fatalf("Names() = %v", names)
	}
	for _, name := range names {
		p, err := locks.ByName(name, locks.Options{})
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := locks.ByName("ticket", locks.Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
}

// --- Reader/writer locks ---

// rwStats is what runRW observes. The Go-side counters are safe without
// atomics: the simulator runs exactly one thread at a time and only
// switches at blocking operations.
type rwStats struct {
	ReadOps, WriteOps int64
	MaxReaders        int
	Violations        int64 // writer overlapping anyone, or reader overlapping a writer
}

// runRW drives readers and writers against one RW lock on node 0 through
// the blocking shape (api.Blocking over the algorithm's handle) and checks
// the shared/exclusive invariants from inside the critical sections.
func runRW(t *testing.T, prov locks.Provider, readers, writers int, csNS int64, horizon int64) rwStats {
	t.Helper()
	m := model.Uniform(7)
	m.TornRCAS = true
	m.TornGapNS = 90
	e := sim.New(2, 1<<18, m, 1)
	l := e.Space().AllocLine(0)

	var st rwStats
	var readersIn, writersIn int
	for i := 0; i < readers; i++ {
		node := i % 2
		e.Spawn(node, func(ctx api.Ctx) {
			h := api.NewBlocking(prov.NewHandle(ctx))
			for !ctx.Stopped() {
				h.RLock(l)
				readersIn++
				if writersIn > 0 {
					st.Violations++
				}
				if readersIn > st.MaxReaders {
					st.MaxReaders = readersIn
				}
				ctx.Work(time.Duration(csNS))
				readersIn--
				h.RUnlock(l)
				st.ReadOps++
			}
		})
	}
	for i := 0; i < writers; i++ {
		node := i % 2
		e.Spawn(node, func(ctx api.Ctx) {
			h := api.NewBlocking(prov.NewHandle(ctx))
			for !ctx.Stopped() {
				h.Lock(l)
				writersIn++
				if writersIn > 1 || readersIn > 0 {
					st.Violations++
				}
				ctx.Work(time.Duration(csNS))
				writersIn--
				h.Unlock(l)
				st.WriteOps++
			}
		})
	}
	e.Run(horizon)
	return st
}

func TestRWLocksSharedExclusiveInvariants(t *testing.T) {
	for _, name := range []string{"rw-budget", "rw-wpref", "rw-queue"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prov, err := locks.ByName(name, locks.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := runRW(t, prov, 6, 2, 800, 600_000)
			if st.Violations != 0 {
				t.Fatalf("%d shared/exclusive violations", st.Violations)
			}
			if st.ReadOps == 0 || st.WriteOps == 0 {
				t.Fatalf("a class starved outright: reads=%d writes=%d", st.ReadOps, st.WriteOps)
			}
			if st.MaxReaders < 2 {
				t.Fatalf("readers never overlapped (max concurrency %d) — RLock degraded to exclusive", st.MaxReaders)
			}
		})
	}
}

func TestRWBudgetAdmitsReadersUnderWriterStream(t *testing.T) {
	// Under a steady writer stream, writer preference throttles readers
	// hard; the budgeted lock must keep yielding the phase back to them.
	budget, err := locks.ByName("rw-budget", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wpref, err := locks.ByName("rw-wpref", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := runRW(t, budget, 4, 4, 1200, 900_000)
	w := runRW(t, wpref, 4, 4, 1200, 900_000)
	if b.Violations != 0 || w.Violations != 0 {
		t.Fatalf("violations: budget=%d wpref=%d", b.Violations, w.Violations)
	}
	if b.ReadOps <= w.ReadOps {
		t.Errorf("budgeted lock did not favor readers over writer preference: %d vs %d reads",
			b.ReadOps, w.ReadOps)
	}
}

func TestRWUncontendedWriteSingleCAS(t *testing.T) {
	// An exclusive acquire on an idle RW lock must cost one rCAS, not a
	// register-then-enter pair: 2 NIC submissions for Lock (TX+RX of one
	// verb) plus 2 for Unlock.
	for _, name := range []string{"rw-budget", "rw-wpref", "rw-queue"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prov, err := locks.ByName(name, locks.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := sim.New(2, 1<<18, model.Uniform(7), 1)
			l := e.Space().AllocLine(0)
			e.Spawn(1, func(ctx api.Ctx) { // remote thread, idle lock
				h := api.NewBlocking(prov.NewHandle(ctx))
				h.Lock(l)
				h.Unlock(l)
			})
			e.Run(1 << 40)
			var verbs int64
			for n := 0; n < 2; n++ {
				verbs += e.NIC(n).Stats().Verbs
			}
			if verbs != 4 {
				t.Fatalf("uncontended write lock/unlock cost %d NIC submissions, want 4", verbs)
			}
		})
	}
}

// TestRWQueueStormInvariants is the locktest-style check for the queued
// lock under a heavier storm than the shared invariant test: many readers
// and writers on one lock, checking from inside the critical sections that
// a writer is never concurrent with any reader (or another writer), that
// readers really overlap, and that neither class starves.
func TestRWQueueStormInvariants(t *testing.T) {
	prov, err := locks.ByName("rw-queue", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := runRW(t, prov, 10, 4, 600, 1_500_000)
	if st.Violations != 0 {
		t.Fatalf("%d shared/exclusive violations (writer admitted alongside a reader)", st.Violations)
	}
	if st.MaxReaders < 2 {
		t.Fatalf("readers never overlapped (max concurrency %d)", st.MaxReaders)
	}
	if st.ReadOps == 0 || st.WriteOps == 0 {
		t.Fatalf("a class starved outright: reads=%d writes=%d", st.ReadOps, st.WriteOps)
	}
}

// TestRWQueueTinyBudgetStillAdmitsReaders pins the budget at its minimum:
// barging is all but disabled, every reader detours through the queue, and
// the invariants must still hold.
func TestRWQueueTinyBudgetStillAdmitsReaders(t *testing.T) {
	prov, err := locks.ByName("rw-queue", locks.Options{
		RW: locks.RWConfig{ReadBudget: 1, WriteBudget: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runRW(t, prov, 6, 2, 800, 900_000)
	if st.Violations != 0 {
		t.Fatalf("%d violations under budget 1", st.Violations)
	}
	if st.ReadOps == 0 || st.WriteOps == 0 {
		t.Fatalf("a class starved: reads=%d writes=%d", st.ReadOps, st.WriteOps)
	}
}

func TestRWExclusiveDegradationAdapter(t *testing.T) {
	// Algorithms without native shared mode treat Shared as Exclusive:
	// still mutually exclusive, readers never overlap.
	prov, err := locks.ByName("mcs", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.Uniform(7)
	e := sim.New(2, 1<<18, m, 1)
	l := e.Space().AllocLine(0)
	var readersIn, maxReaders int
	var ops int64
	for i := 0; i < 4; i++ {
		node := i % 2
		e.Spawn(node, func(ctx api.Ctx) {
			h := api.NewBlocking(prov.NewHandle(ctx))
			for !ctx.Stopped() {
				h.RLock(l)
				readersIn++
				if readersIn > maxReaders {
					maxReaders = readersIn
				}
				ctx.Work(500 * time.Nanosecond)
				readersIn--
				h.RUnlock(l)
				ops++
			}
		})
	}
	e.Run(300_000)
	if ops == 0 {
		t.Fatal("no operations completed")
	}
	if maxReaders != 1 {
		t.Fatalf("exclusive degradation let %d readers overlap", maxReaders)
	}
}

func TestAllCorrectAlgorithmsUnderOneConfig(t *testing.T) {
	// Every non-broken algorithm passes the same single-lock check: all
	// nine threads on one lock, the highest contention the config reaches
	// (TestMutualExclusionUnderTokenAPI covers the two-lock mix).
	cfg := locktest.DefaultMutexConfig()
	cfg.Locks = 1
	cfg.Iters = 40
	for _, name := range locks.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prov, err := locks.ByName(name, locks.Options{})
			if err != nil {
				t.Fatal(err)
			}
			locktest.CheckMutualExclusion(t, prov, cfg)
		})
	}
}

// TestZombieDrainRecycles pins the zombie-descriptor leak fix: a thread
// that stops acquiring must still recycle its abandoned descriptors on its
// next release, once the granter's skip marks have landed.
func TestZombieDrainRecycles(t *testing.T) {
	for _, name := range []string{"alock", "mcs", "rw-queue"} {
		t.Run(name, func(t *testing.T) {
			prov, err := locks.ByName(name, locks.Options{Timed: true})
			if err != nil {
				t.Fatal(err)
			}
			locktest.CheckZombieDrain(t, prov)
		})
	}
}

// untimedSpin is a spinlock handle that blocks straight through any
// deadline: a grant that lands past it, as a committed waiter's does.
type untimedSpin struct{ api.Handle }

func (h untimedSpin) AcquireTimed(l ptr.Ptr, mode api.Mode, _ int64) (api.AcqState, bool) {
	return h.Handle.AcquireTimed(l, mode, 0)
}

type untimedSpinProvider struct{}

func (untimedSpinProvider) Name() string { return "untimed-spin" }
func (untimedSpinProvider) NewHandle(ctx api.Ctx) api.Handle {
	return untimedSpin{locks.NewSpinHandle(ctx)}
}

// TestBestEffortDeadlineReportsLateAcquire pins the overshoot-honesty fix:
// a grant that lands past its deadline must be reported as AcquiredLate,
// not Acquired, while an in-deadline grant stays Acquired and the guard is
// live either way.
func TestBestEffortDeadlineReportsLateAcquire(t *testing.T) {
	prov := untimedSpinProvider{}
	e := sim.New(1, 1<<18, model.Uniform(10), 1)
	l := e.Space().AllocLine(0)
	ft := locks.NewFenceTable()

	var inTime, late api.Outcome
	var lateRelease api.ReleaseOutcome
	e.Spawn(0, func(ctx api.Ctx) { // holder: wedges the lock well past the waiter's deadline
		h := locks.TokenHandleFor(prov, ctx, ft)
		var g api.Guard
		g, inTime = h.Acquire(l, api.Exclusive, api.AcquireOpts{DeadlineNS: ctx.Now() + 50_000})
		ctx.Work(40 * time.Microsecond)
		h.Release(g)
	})
	e.Spawn(0, func(ctx api.Ctx) { // waiter: 10us deadline against a 40us hold
		h := locks.TokenHandleFor(prov, ctx, ft)
		ctx.Work(2 * time.Microsecond)
		var g api.Guard
		g, late = h.Acquire(l, api.Exclusive, api.AcquireOpts{DeadlineNS: ctx.Now() + 10_000})
		lateRelease = h.Release(g)
	})
	e.Run(1 << 40)

	if inTime != api.Acquired {
		t.Errorf("uncontended in-deadline acquire = %v, want Acquired", inTime)
	}
	if late != api.AcquiredLate {
		t.Errorf("blocked-through-deadline acquire = %v, want AcquiredLate", late)
	}
	if !late.Granted() || !inTime.Granted() {
		t.Error("granted outcomes must report Granted()")
	}
	if lateRelease != api.Released {
		t.Errorf("late-acquired guard release = %v, want Released (the guard is live)", lateRelease)
	}
}

// TestShardedEngineInvariants runs the full mutual-exclusion invariant
// suite on the conservative windowed executor (shards=4) and pins every
// observation (ops, counter sum, tramples, per-lock entry order) to the
// serial engine's, bit for bit — as it does for shards=1, the windowed
// executor on one worker.
func TestShardedEngineInvariants(t *testing.T) {
	for _, name := range []string{"spinlock", "mcs", "alock", "rw-queue"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := locktest.DefaultMutexConfig()
			cfg.Iters = 40
			prov, err := locks.ByName(name, locks.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial := locktest.RunMutex(prov, cfg)
			for _, shards := range []int{1, 4} {
				scfg := cfg
				scfg.EngineShards = shards
				if shards > 1 {
					locktest.CheckMutualExclusion(t, prov, scfg)
				}
				got := locktest.RunMutex(prov, scfg)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("%s: observations diverged between serial and shards=%d engines:\nserial: %+v\nshards: %+v",
						name, shards, serial, got)
				}
			}
		})
	}
}

// TestShardedEngineOverlappingHolds repeats the two-locks-held token-API
// check on the windowed executor.
func TestShardedEngineOverlappingHolds(t *testing.T) {
	cfg := locktest.DefaultOverlapConfig()
	cfg.Iters = 30
	cfg.EngineShards = 4
	prov, err := locks.ByName("mcs", locks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	locktest.CheckOverlappingHolds(t, prov, cfg)
}
