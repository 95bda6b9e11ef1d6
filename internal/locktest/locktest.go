// Package locktest provides shared correctness harnesses for every lock
// algorithm in the repository. It is imported only by test files.
//
// The central check is mutual exclusion: threads repeatedly acquire a lock
// and perform a deliberately non-atomic read-modify-write on a counter plus
// an ownership handshake. Any interleaving of two critical sections loses an
// increment or trips the ownership check, so a correct run proves the lock
// serialized every critical section. One run body serves two backends: the
// deterministic simulator with Table 1 tearing enabled, and (with
// MutexConfig.RealTime) internal/rt's goroutines in real parallel, where a
// plain Go counter bumped inside each critical section is the race
// detector's witness. Acquisitions go through the token layer
// (locks.TokenHandleFor), the path every workload uses. CheckOverlappingHolds
// runs the same body with two locks held at once, proving
// descriptor-per-acquisition correctness and fencing-token acceptance of
// every valid release.
package locktest

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/mem"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/rt"
	"alock/internal/sim"
)

// MutexConfig parameterizes CheckMutualExclusion and CheckOverlappingHolds.
type MutexConfig struct {
	Nodes          int
	ThreadsPerNode int
	Locks          int
	Iters          int // ops per thread
	LocalityPct    int // percentage of one-lock ops targeting the own node
	Seed           int64
	Model          model.Params
	// EngineShards is the engine's worker count (0 = serial executor, n >= 1
	// = conservative windowed executor on n workers). The schedule — and
	// therefore every observation — is bit-identical at any setting.
	EngineShards int
	// Holds is how many distinct locks an op holds at once (0 means 1).
	// Above one, an op draws them uniformly, acquires them in ascending
	// index order (the deadlock-avoiding discipline) and releases them in
	// both orders: ascending on even iterations, descending on odd.
	Holds int
	// RealTime runs the threads as internal/rt goroutines instead of under
	// the simulator; Model and EngineShards are then unused.
	RealTime bool
}

// OverlapConfig is the MutexConfig of CheckOverlappingHolds.
type OverlapConfig = MutexConfig

// DefaultMutexConfig returns a small-but-contended configuration with
// tearing enabled.
func DefaultMutexConfig() MutexConfig {
	m := model.Uniform(7)
	m.TornRCAS = true
	m.TornGapNS = 90
	return MutexConfig{
		Nodes:          3,
		ThreadsPerNode: 3,
		Locks:          2,
		Iters:          120,
		LocalityPct:    60,
		Seed:           1,
		Model:          m,
	}
}

// DefaultOverlapConfig returns a small-but-contended two-lock configuration
// with tearing enabled.
func DefaultOverlapConfig() OverlapConfig {
	cfg := DefaultMutexConfig()
	cfg.ThreadsPerNode = 2
	cfg.Locks = 3
	cfg.Iters = 60
	cfg.LocalityPct = 0
	cfg.Holds = 2
	return cfg
}

// Result reports what the harness observed.
type Result struct {
	TotalOps      int64
	CounterSum    int64
	OwnerTramples int64   // includes grants that were not Acquired and fenced live releases
	Entries       [][]int // per lock: sequence of acquiring thread IDs
}

// mutexEntry is one critical-section completion, stamped with its time so
// per-thread logs can be merged back into the global serialization order
// (critical sections on one lock never overlap, so stamps on a lock are
// strictly increasing).
type mutexEntry struct {
	at  int64
	tid int
}

// mutexTally is one thread's private observations. Threads run
// concurrently under rt and on different shards of the windowed executor,
// so shared tallies would race; each thread owns a slot and the merge
// happens after the run.
type mutexTally struct {
	ops      int64
	tramples int64
	entries  [][]mutexEntry // per lock
}

// backend builds the run's engine: its memory, a spawn, and a wait until
// every thread spawned since the last wait has returned. rt's threads are
// held at a gate the wait opens, so they start together: one spawned alone
// could finish its ops before the next goroutine runs.
func backend(cfg MutexConfig) (*mem.Space, func(int, func(api.Ctx)), func()) {
	if cfg.RealTime {
		e := rt.New(cfg.Nodes, 1<<20, rt.Config{}, cfg.Seed)
		gate := make(chan struct{})
		spawn := func(node int, fn func(api.Ctx)) {
			g := gate
			e.Spawn(node, func(ctx api.Ctx) { <-g; fn(ctx) })
		}
		return e.Space(), spawn, func() { close(gate); e.Wait(); gate = make(chan struct{}) }
	}
	var opts []sim.Option
	if cfg.EngineShards > 0 {
		opts = append(opts, sim.WithShards(cfg.EngineShards))
	}
	e := sim.New(cfg.Nodes, 1<<20, cfg.Model, cfg.Seed, opts...)
	return e.Space(), func(node int, fn func(api.Ctx)) { e.Spawn(node, fn) }, func() { e.Run(1 << 62) }
}

// run executes the workload and returns its observations, the sum of the
// plain Go counters, and the token layer's books (a guard still live after
// every thread exits, or a release of one no longer held).
func run(prov locks.Provider, cfg MutexConfig) (Result, int64, error) {
	holds := max(cfg.Holds, 1)
	space, spawn, wait := backend(cfg)

	lockPtrs := make([]ptr.Ptr, cfg.Locks)
	counterPtrs := make([]ptr.Ptr, cfg.Locks)
	ownerPtrs := make([]ptr.Ptr, cfg.Locks)
	for i := range lockPtrs {
		node := i % cfg.Nodes
		lockPtrs[i] = space.AllocLine(node)
		counterPtrs[i] = space.AllocLine(node)
		ownerPtrs[i] = space.AllocLine(node)
	}
	prov.Prepare(space, lockPtrs)

	ft := locks.NewFenceTable()
	tallies := make([]mutexTally, cfg.Nodes*cfg.ThreadsPerNode)
	// plain is bumped only inside a critical section: under rt a lost
	// update or a -race report is the lock's failure, not the test's.
	plain := make([]int64, cfg.Locks)
	slot := 0
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			tl := &tallies[slot]
			slot++
			spawn(n, func(ctx api.Ctx) {
				tl.entries = make([][]mutexEntry, cfg.Locks)
				h := locks.TokenHandleFor(prov, ctx, ft)
				rw := rwFor(ctx)
				held := make([]int, holds)
				guards := make([]api.Guard, 0, holds)
				for it := 0; it < cfg.Iters; it++ {
					pick(ctx, cfg, lockPtrs, held)
					guards = guards[:0]
					for _, li := range held {
						g, out := h.Acquire(lockPtrs[li], api.Exclusive, api.AcquireOpts{})
						if out != api.Acquired {
							tl.tramples++ // a blocking acquire neither times out nor runs late
						}
						if !out.Granted() {
							break
						}
						guards = append(guards, g)
					}
					if len(guards) < holds {
						for _, g := range guards {
							h.Release(g) // back out of what was granted
						}
						continue
					}
					// Critical section: ownership handshake plus a torn
					// counter increment on every held lock. Data accesses
					// use the thread's own access class, like real
					// protected data would.
					tag := uint64(ctx.ThreadID()) + 1
					for _, li := range held {
						if rw.read(ctx, ownerPtrs[li]) != 0 {
							tl.tramples++
						}
						rw.write(ctx, ownerPtrs[li], tag)
					}
					for _, li := range held {
						c := rw.read(ctx, counterPtrs[li])
						rw.write(ctx, counterPtrs[li], c+1)
						plain[li]++
						if rw.read(ctx, ownerPtrs[li]) != tag {
							tl.tramples++
						}
						rw.write(ctx, ownerPtrs[li], 0)
						tl.entries[li] = append(tl.entries[li],
							mutexEntry{at: ctx.Now(), tid: ctx.ThreadID()})
					}
					if it%2 == 1 {
						slices.Reverse(guards) // release in both orders
					}
					for _, g := range guards {
						if h.Release(g) != api.Released {
							tl.tramples++ // a live guard's release must not be fenced
						}
					}
					tl.ops++
				}
			})
		}
	}
	wait()
	if err := ft.Drained(); err != nil {
		return Result{}, 0, err
	}

	res := Result{Entries: make([][]int, cfg.Locks)}
	var plainSum int64
	for i := range tallies {
		res.TotalOps += tallies[i].ops
		res.OwnerTramples += tallies[i].tramples
	}
	// Merge the per-thread entry logs back into the global serialization
	// order per lock.
	for li := 0; li < cfg.Locks; li++ {
		plainSum += plain[li]
		var merged []mutexEntry
		for i := range tallies {
			if tallies[i].entries != nil {
				merged = append(merged, tallies[i].entries[li]...)
			}
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].at != merged[b].at {
				return merged[a].at < merged[b].at
			}
			return merged[a].tid < merged[b].tid
		})
		res.Entries[li] = make([]int, len(merged))
		for i, en := range merged {
			res.Entries[li][i] = en.tid
		}
	}

	// Sum the counters after all threads exit, routing each read through
	// the verb protocol the word's placement demands.
	spawn(0, func(ctx api.Ctx) {
		rw := rwFor(ctx)
		for i := range counterPtrs {
			res.CounterSum += int64(rw.read(ctx, counterPtrs[i]))
		}
	})
	wait()
	return res, plainSum, nil
}

// RunMutex executes the mutual-exclusion workload and returns observations
// without judging them (used by both the positive checks and the negative
// Table 1 demonstrations). The one thing it does judge is the token layer's
// books: a guard still live after every thread exits panics the run.
func RunMutex(prov locks.Provider, cfg MutexConfig) Result {
	res, _, err := run(prov, cfg)
	if err != nil {
		panic("locktest: " + err.Error())
	}
	return res
}

// CheckMutualExclusion fails t unless every critical section was perfectly
// serialized, every grant and valid release was accepted, and no guard was
// left live or released twice.
func CheckMutualExclusion(t *testing.T, prov locks.Provider, cfg MutexConfig) {
	t.Helper()
	holds := max(cfg.Holds, 1)
	if cfg.Locks < holds {
		t.Fatalf("%d locks held at once need as many locks, got %d", holds, cfg.Locks)
	}
	res, plain, err := run(prov, cfg)
	if err != nil {
		t.Fatalf("%s: %v", prov.Name(), err)
	}
	shape := ""
	if holds > 1 {
		shape = fmt.Sprintf(" holding %d locks at once", holds)
	}
	want := int64(cfg.Nodes * cfg.ThreadsPerNode * cfg.Iters)
	if res.TotalOps != want {
		t.Fatalf("%s: completed %d ops%s, want %d", prov.Name(), res.TotalOps, shape, want)
	}
	if want *= int64(holds); res.CounterSum != want || plain != want {
		t.Errorf("%s: lost updates%s — counter sum %d, plain counter sum %d, want %d (mutual exclusion violated)",
			prov.Name(), shape, res.CounterSum, plain, want)
	}
	if res.OwnerTramples != 0 {
		t.Errorf("%s: %d ownership violations%s (overlapping critical sections, late grants or fenced releases)",
			prov.Name(), res.OwnerTramples, shape)
	}
}

// CheckOverlappingHolds proves descriptor-per-acquisition correctness
// under the token API: CheckMutualExclusion with every op holding two
// distinct locks (cfg.Holds, at least 2). A lock algorithm that still ties
// one descriptor to the thread — rather than to the acquisition — corrupts
// its queue on the second acquire and loses increments or tramples
// ownership; a correct run also sees every release accepted by its fencing
// token and, once every thread has exited, no guard still live (a back-out
// that forgets the first lock).
func CheckOverlappingHolds(t *testing.T, prov locks.Provider, cfg OverlapConfig) {
	t.Helper()
	cfg.Holds = max(cfg.Holds, 2)
	CheckMutualExclusion(t, prov, cfg)
}

// CheckZombieDrain proves the descriptor pools recycle abandoned
// descriptors without relying on the owner acquiring again. The schedule:
// a holder wedges lock B; a patient waiter queues behind it; a third
// thread, already holding lock A, attempts B with a short deadline, times
// out and parks its abandoned descriptor as a zombie — then never acquires
// anything again. Once the holder releases and the patient waiter's grant
// patches the queue (landing the skip mark), the third thread's only
// remaining action is releasing A. The release-side sweep must recycle the
// zombie; before the fix, only the next acquire swept, so a thread that
// stopped acquiring leaked every skipped descriptor until the run ended.
func CheckZombieDrain(t *testing.T, prov locks.Provider) {
	t.Helper()
	e := sim.New(2, 1<<20, model.Uniform(7), 1)
	space := e.Space()
	// A is local to the threads, B is remote: for cohort-partitioned pools
	// (alock) the zombie parks in the REMOTE cohort while the final
	// release is on the LOCAL one — the drain must sweep across cohorts.
	lockA := space.AllocLine(0)
	lockB := space.AllocLine(1)
	prov.Prepare(space, []ptr.Ptr{lockA, lockB})

	const (
		us            = 1_000
		holdNS        = 60 * us  // how long the holder wedges B
		shortDeadline = 20 * us  // the zombie-producing attempt's budget
		settleNS      = 200 * us // past the waiter's grant + patch
	)
	zombiesParked, zombiesAfterRelease := -1, -1
	timedOutAttempts := 0

	// The holder: wedges B long enough for the short-deadline attempt to
	// abandon, then releases (which lets the patient waiter in).
	e.Spawn(0, func(ctx api.Ctx) {
		h := prov.NewHandle(ctx)
		st, ok := h.AcquireTimed(lockB, api.Exclusive, 0)
		if !ok {
			t.Errorf("%s: holder failed a blocking acquire", prov.Name())
			return
		}
		ctx.Work(time.Duration(holdNS))
		h.ReleaseAcq(lockB, api.Exclusive, st)
	})
	// The patient waiter: queues behind the holder with a generous
	// deadline; its grant (and release) patches the queue around the
	// abandoned descriptor, landing the skip mark.
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(2 * time.Microsecond)
		h := prov.NewHandle(ctx)
		st, ok := h.AcquireTimed(lockB, api.Exclusive, ctx.Now()+4*holdNS)
		if !ok {
			t.Errorf("%s: patient waiter timed out", prov.Name())
			return
		}
		h.ReleaseAcq(lockB, api.Exclusive, st)
	})
	// The zombie producer: holds A, burns a short-deadline attempt on B,
	// then stops acquiring. Its release of A is the only remaining chance
	// to recycle the abandoned descriptor.
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(5 * time.Microsecond)
		h := prov.NewHandle(ctx)
		zc, ok := h.(locks.ZombieCounter)
		if !ok {
			// Errorf, not Fatalf: FailNow must be called on the test's own
			// goroutine, and a sim thread's body runs on its coroutine.
			// The missing-attempt check after e.Run fails the test.
			t.Errorf("%s: handle does not count zombies", prov.Name())
			return
		}
		stA, okA := h.AcquireTimed(lockA, api.Exclusive, 0)
		if !okA {
			t.Errorf("%s: uncontended acquire of A failed", prov.Name())
			return
		}
		if _, ok := h.AcquireTimed(lockB, api.Exclusive, ctx.Now()+shortDeadline); ok {
			t.Errorf("%s: short-deadline acquire of wedged lock succeeded", prov.Name())
		} else {
			timedOutAttempts++
		}
		zombiesParked = zc.Zombies()
		ctx.Work(time.Duration(settleNS))
		h.ReleaseAcq(lockA, api.Exclusive, stA)
		zombiesAfterRelease = zc.Zombies()
	})
	e.Run(1 << 62)

	if timedOutAttempts == 0 {
		t.Fatalf("%s: schedule produced no timed-out attempt", prov.Name())
	}
	if zombiesParked < 1 {
		t.Fatalf("%s: abandoned descriptor was not parked as a zombie (got %d)",
			prov.Name(), zombiesParked)
	}
	if zombiesAfterRelease != 0 {
		t.Errorf("%s: %d zombie descriptors survived the drain — the release-side sweep leaked them",
			prov.Name(), zombiesAfterRelease)
	}
}

// TrimToContended cuts the entry sequence at the last point where both
// classes were still producing entries, removing the tail where one side
// had already finished its workload and the other ran uncontended (run
// length bounds only apply while the other cohort is actually waiting).
func TrimToContended(entries []int, class func(tid int) int) []int {
	last := map[int]int{}
	for i, tid := range entries {
		last[class(tid)] = i
	}
	cut := len(entries)
	for _, idx := range last {
		if idx+1 < cut {
			cut = idx + 1 //lint:allow maporder pure minimum over map values is order-independent
		}
	}
	return entries[:cut]
}

// MaxRun returns the longest run of consecutive entries whose classifier
// returns the same value — used for fairness assertions.
func MaxRun(entries []int, class func(tid int) int) int {
	maxRun, run, prev := 0, 0, -1
	for _, tid := range entries {
		c := class(tid)
		if c == prev {
			run++
		} else {
			run, prev = 1, c
		}
		if run > maxRun {
			maxRun = run
		}
	}
	return maxRun
}

// rw routes protected-data accesses through the thread's own access class.
type rw struct{ node int }

func rwFor(ctx api.Ctx) rw { return rw{node: ctx.NodeID()} }

func (r rw) read(ctx api.Ctx, p ptr.Ptr) uint64 {
	if p.NodeID() == r.node {
		return ctx.Read(p)
	}
	return ctx.RRead(p)
}

func (r rw) write(ctx api.Ctx, p ptr.Ptr, v uint64) {
	if p.NodeID() == r.node {
		ctx.Write(p, v)
		return
	}
	ctx.RWrite(p, v)
}

// pick fills held with an op's locks: one drawn by locality, or
// len(held) distinct ones drawn uniformly, in ascending index order.
func pick(ctx api.Ctx, cfg MutexConfig, lockPtrs []ptr.Ptr, held []int) {
	if len(held) == 1 {
		held[0] = pickLock(ctx, cfg, lockPtrs)
		return
	}
	for j := range held {
		// The x-th index not drawn yet: step over the earlier draws in
		// ascending order.
		x := ctx.Rand().Intn(cfg.Locks - j)
		slices.Sort(held[:j])
		for _, d := range held[:j] {
			if x >= d {
				x++
			}
		}
		held[j] = x
	}
	slices.Sort(held)
}

func pickLock(ctx api.Ctx, cfg MutexConfig, lockPtrs []ptr.Ptr) int {
	if cfg.Locks == 1 {
		return 0
	}
	local := ctx.Rand().Intn(100) < cfg.LocalityPct
	for tries := 0; ; tries++ {
		i := ctx.Rand().Intn(cfg.Locks)
		if (lockPtrs[i].NodeID() == ctx.NodeID()) == local {
			return i
		}
		if tries > 64 {
			return i // this node may own no (or all) locks
		}
	}
}
