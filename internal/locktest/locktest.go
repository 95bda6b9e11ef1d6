// Package locktest provides shared correctness harnesses for every lock
// algorithm in the repository. It is imported only by test files.
//
// The central check is mutual exclusion under the deterministic simulator
// with Table 1 tearing enabled: threads repeatedly acquire a lock and
// perform a deliberately non-atomic read-modify-write on a counter plus an
// ownership handshake. Any interleaving of two critical sections loses an
// increment or trips the ownership check, so a correct run proves the lock
// serialized every critical section under that schedule. Acquisitions go
// through the token layer (locks.TokenHandleFor), the path every workload
// uses. CheckOverlappingHolds extends the same idea to two locks held at once
// through the acquisition-token API, proving descriptor-per-acquisition
// correctness and fencing-token acceptance of every valid release.
package locktest

import (
	"sort"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// MutexConfig parameterizes CheckMutualExclusion.
type MutexConfig struct {
	Nodes          int
	ThreadsPerNode int
	Locks          int
	Iters          int // lock/unlock pairs per thread
	LocalityPct    int // percentage of operations targeting the own node
	Seed           int64
	Model          model.Params
	// EngineShards is the engine's worker count (0 or 1 = serial executor,
	// >1 = conservative windowed parallel executor). The schedule — and
	// therefore every observation — is bit-identical at any setting.
	EngineShards int
}

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

// Result reports what the harness observed.
type Result struct {
	TotalOps      int64
	CounterSum    int64
	OwnerTramples int64
	Entries       [][]int // per lock: sequence of acquiring thread IDs
}

// mutexEntry is one critical-section completion, stamped with its virtual
// time so per-thread logs can be merged back into the global serialization
// order (critical sections on one lock never overlap, so stamps on a lock
// are strictly increasing).
type mutexEntry struct {
	at  int64
	tid int
}

// mutexTally is one thread's private observations. Threads on different
// shards run concurrently under the windowed executor, so shared tallies
// would race; each thread owns a slot and the merge happens after Run.
type mutexTally struct {
	ops      int64
	tramples int64
	entries  [][]mutexEntry // per lock
}

// RunMutex executes the mutual-exclusion workload and returns observations
// without judging them (used by both the positive checks and the negative
// Table 1 demonstrations).
func RunMutex(prov locks.Provider, cfg MutexConfig) Result {
	var opts []sim.Option
	if cfg.EngineShards > 0 {
		opts = append(opts, sim.WithShards(cfg.EngineShards))
	}
	e := sim.New(cfg.Nodes, 1<<20, cfg.Model, cfg.Seed, opts...)
	space := e.Space()

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
	slot := 0
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			node := n
			tl := &tallies[slot]
			slot++
			e.Spawn(node, func(ctx api.Ctx) {
				tl.entries = make([][]mutexEntry, cfg.Locks)
				h := locks.TokenHandleFor(prov, ctx, ft)
				rw := rwFor(ctx)
				for it := 0; it < cfg.Iters; it++ {
					li := pickLock(ctx, cfg, lockPtrs)
					g, out := h.Acquire(lockPtrs[li], api.Exclusive, api.AcquireOpts{})
					if !out.Granted() {
						tl.tramples++ // a blocking acquire must not time out
						continue
					}
					// Critical section: ownership handshake plus a torn
					// counter increment. Data accesses use the thread's
					// own access class, like real protected data would.
					tag := uint64(ctx.ThreadID()) + 1
					if rw.read(ctx, ownerPtrs[li]) != 0 {
						tl.tramples++
					}
					rw.write(ctx, ownerPtrs[li], tag)
					c := rw.read(ctx, counterPtrs[li])
					rw.write(ctx, counterPtrs[li], c+1)
					if rw.read(ctx, ownerPtrs[li]) != tag {
						tl.tramples++
					}
					rw.write(ctx, ownerPtrs[li], 0)
					tl.entries[li] = append(tl.entries[li],
						mutexEntry{at: ctx.Now(), tid: ctx.ThreadID()})
					if h.Release(g) != api.Released {
						tl.tramples++ // a live guard's release must not be fenced
					}
					tl.ops++
				}
			})
		}
	}
	e.Run(1 << 62)

	res := Result{Entries: make([][]int, cfg.Locks)}
	for i := range tallies {
		res.TotalOps += tallies[i].ops
		res.OwnerTramples += tallies[i].tramples
	}
	// Merge the per-thread entry logs back into the global serialization
	// order per lock.
	for li := 0; li < cfg.Locks; li++ {
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
	e.Spawn(0, func(ctx api.Ctx) {
		rw := rwFor(ctx)
		for i := range counterPtrs {
			res.CounterSum += int64(rw.read(ctx, counterPtrs[i]))
		}
	})
	e.Run(1 << 62)
	return res
}

// CheckMutualExclusion fails t unless every critical section was perfectly
// serialized.
func CheckMutualExclusion(t *testing.T, prov locks.Provider, cfg MutexConfig) {
	t.Helper()
	res := RunMutex(prov, cfg)
	want := int64(cfg.Nodes * cfg.ThreadsPerNode * cfg.Iters)
	if res.TotalOps != want {
		t.Fatalf("%s: completed %d ops, want %d", prov.Name(), res.TotalOps, want)
	}
	if res.CounterSum != want {
		t.Errorf("%s: lost updates — counter sum %d, want %d (mutual exclusion violated)",
			prov.Name(), res.CounterSum, want)
	}
	if res.OwnerTramples != 0 {
		t.Errorf("%s: %d ownership violations (overlapping critical sections)",
			prov.Name(), res.OwnerTramples)
	}
}

// OverlapConfig parameterizes CheckOverlappingHolds.
type OverlapConfig struct {
	Nodes          int
	ThreadsPerNode int
	Locks          int // must be >= 2
	Iters          int // two-lock transactions per thread
	Seed           int64
	Model          model.Params
	// EngineShards is the engine's worker count, as in MutexConfig.
	EngineShards int
}

// DefaultOverlapConfig returns a small-but-contended configuration with
// tearing enabled.
func DefaultOverlapConfig() OverlapConfig {
	m := model.Uniform(7)
	m.TornRCAS = true
	m.TornGapNS = 90
	return OverlapConfig{
		Nodes:          3,
		ThreadsPerNode: 2,
		Locks:          3,
		Iters:          60,
		Seed:           1,
		Model:          m,
	}
}

// CheckOverlappingHolds proves descriptor-per-acquisition correctness
// under the token API: every thread repeatedly acquires two distinct locks
// (in ascending index order, the deadlock-avoiding discipline), mutates
// both locks' protected counters inside the doubly-held section, and
// releases in both orders (ascending on even iterations, descending on
// odd). A lock algorithm that still ties one descriptor to the thread —
// rather than to the acquisition — corrupts its queue on the second
// acquire and loses increments or tramples ownership; a correct run also
// sees every release accepted by its fencing token.
func CheckOverlappingHolds(t *testing.T, prov locks.Provider, cfg OverlapConfig) {
	t.Helper()
	if cfg.Locks < 2 {
		t.Fatalf("CheckOverlappingHolds needs >= 2 locks, got %d", cfg.Locks)
	}
	var opts []sim.Option
	if cfg.EngineShards > 0 {
		opts = append(opts, sim.WithShards(cfg.EngineShards))
	}
	e := sim.New(cfg.Nodes, 1<<20, cfg.Model, cfg.Seed, opts...)
	space := e.Space()

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
	// Per-thread tallies: threads on different shards run concurrently
	// under the windowed executor, so shared counters would race.
	type overlapTally struct{ ops, tramples, fenced int64 }
	tallies := make([]overlapTally, cfg.Nodes*cfg.ThreadsPerNode)
	slot := 0
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			node := n
			tl := &tallies[slot]
			slot++
			e.Spawn(node, func(ctx api.Ctx) {
				h := locks.TokenHandleFor(prov, ctx, ft)
				rw := rwFor(ctx)
				for it := 0; it < cfg.Iters; it++ {
					a := ctx.Rand().Intn(cfg.Locks)
					b := ctx.Rand().Intn(cfg.Locks - 1)
					if b >= a {
						b++
					}
					if b < a {
						a, b = b, a
					}
					ga, out := h.Acquire(lockPtrs[a], api.Exclusive, api.AcquireOpts{}) //lint:allow guardflow a blocking acquire cannot time out; the bail-out only fires on a broken lock, where the trample counter already fails the test
					if out != api.Acquired {
						tl.tramples++ // blocking acquire must not time out
						continue
					}
					gb, out := h.Acquire(lockPtrs[b], api.Exclusive, api.AcquireOpts{}) //lint:allow guardflow a blocking acquire cannot time out; the bail-out only fires on a broken lock, where the trample counter already fails the test
					if out != api.Acquired {
						tl.tramples++
						continue
					}
					// Doubly-held section: the handshake on both locks'
					// data trips if any other critical section overlaps.
					tag := uint64(ctx.ThreadID()) + 1
					for _, li := range []int{a, b} {
						if rw.read(ctx, ownerPtrs[li]) != 0 {
							tl.tramples++
						}
						rw.write(ctx, ownerPtrs[li], tag)
					}
					for _, li := range []int{a, b} {
						c := rw.read(ctx, counterPtrs[li])
						rw.write(ctx, counterPtrs[li], c+1)
						if rw.read(ctx, ownerPtrs[li]) != tag {
							tl.tramples++
						}
						rw.write(ctx, ownerPtrs[li], 0)
					}
					first, second := ga, gb
					if it%2 == 1 {
						first, second = gb, ga // release in both orders
					}
					if h.Release(first) != api.Released {
						tl.fenced++
					}
					if h.Release(second) != api.Released {
						tl.fenced++
					}
					tl.ops++
				}
			})
		}
	}
	e.Run(1 << 62)

	var totalOps, tramples, fenced int64
	for i := range tallies {
		totalOps += tallies[i].ops
		tramples += tallies[i].tramples
		fenced += tallies[i].fenced
	}
	var counterSum int64
	e.Spawn(0, func(ctx api.Ctx) {
		rw := rwFor(ctx)
		for i := range counterPtrs {
			counterSum += int64(rw.read(ctx, counterPtrs[i]))
		}
	})
	e.Run(1 << 62)

	want := int64(cfg.Nodes * cfg.ThreadsPerNode * cfg.Iters)
	if totalOps != want {
		t.Fatalf("%s: completed %d two-lock ops, want %d", prov.Name(), totalOps, want)
	}
	if counterSum != 2*want {
		t.Errorf("%s: lost updates under overlapping holds — counter sum %d, want %d",
			prov.Name(), counterSum, 2*want)
	}
	if tramples != 0 {
		t.Errorf("%s: %d ownership violations under overlapping holds", prov.Name(), tramples)
	}
	if fenced != 0 {
		t.Errorf("%s: %d valid releases rejected by fencing tokens", prov.Name(), fenced)
	}
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
