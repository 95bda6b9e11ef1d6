// Package rt is the real-time execution engine: simulated threads are real
// goroutines running in parallel, and the six memory operations of api.Ctx
// map onto sync/atomic accesses to the shared backing words.
//
// It exists for two purposes:
//
//  1. Correctness. The discrete-event engine (internal/sim) interleaves at
//     event granularity; rt exposes the lock algorithms to genuine
//     parallelism, preemption, and the Go race detector. Every registered
//     algorithm runs internal/locktest's checks here (MutexConfig.RealTime),
//     the same run body the simulator's tests use.
//
//  2. Usability. The examples run the public API on this engine, so a
//     downstream user gets a real working lock library, not only a
//     simulator.
//
// The engine can optionally emulate the paper's Table 1 non-atomicity: with
// tearing enabled, a remote CAS becomes load + window + store under a
// per-word remote-side mutex, so remote RMWs stay atomic with each other
// while local operations interleave freely with the torn window.
package rt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// Config controls optional fidelity features of the real-time engine.
type Config struct {
	// TornRCAS makes RCAS non-atomic with local operations (Table 1):
	// it executes as load, TornGap, store-if-match under a per-word
	// remote-RMW mutex.
	TornRCAS bool
	// TornGap is the window between the read and write halves.
	TornGap time.Duration
	// RemoteDelay, if nonzero, spin-delays every remote verb to roughly
	// this duration, for coarse wall-clock realism in demos.
	RemoteDelay time.Duration
}

// Engine is a real-time cluster: a memory space plus a set of goroutine
// threads.
type Engine struct {
	space *mem.Space
	cfg   Config
	start time.Time

	stopped atomic.Bool
	wg      sync.WaitGroup
	nextID  atomic.Int64
	seed    int64

	// wordLocks serializes remote RMWs per word in torn mode. Sharded to
	// keep contention realistic.
	wordLocks [64]sync.Mutex
}

// threadSeedMix decorrelates per-thread RNG streams (golden-ratio mix,
// truncated to a positive int64).
const threadSeedMix int64 = 0x1e3779b97f4a7c15

// New creates a real-time engine with `nodes` nodes of wordsPerNode words.
func New(nodes, wordsPerNode int, cfg Config, seed int64) *Engine {
	if cfg.TornRCAS && cfg.TornGap <= 0 {
		cfg.TornGap = 200 * time.Nanosecond
	}
	return &Engine{
		space: mem.NewSpace(nodes, wordsPerNode),
		cfg:   cfg,
		start: time.Now(),
		seed:  seed,
	}
}

// Space exposes the cluster memory for setup code.
func (e *Engine) Space() *mem.Space { return e.space }

// Stop asks all threads to wind down; workload loops observe it through
// ctx.Stopped().
func (e *Engine) Stop() { e.stopped.Store(true) }

// Wait blocks until every spawned thread has returned.
func (e *Engine) Wait() { e.wg.Wait() }

// Spawn starts a real goroutine as a thread on `node`.
func (e *Engine) Spawn(node int, fn func(api.Ctx)) {
	if node < 0 || node >= e.space.Nodes() {
		panic(fmt.Sprintf("rt: Spawn on node %d of %d", node, e.space.Nodes()))
	}
	id := int(e.nextID.Add(1) - 1)
	t := &thread{
		e:    e,
		id:   id,
		node: node,
		rng:  rand.New(rand.NewSource(e.seed ^ (int64(id)+1)*threadSeedMix)),
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn(t)
	}()
}

// lockFor returns the remote-RMW serialization mutex for word p.
func (e *Engine) lockFor(p ptr.Ptr) *sync.Mutex {
	h := uint64(p) * 0x9e3779b97f4a7c15
	return &e.wordLocks[h>>58]
}

type thread struct {
	e    *Engine
	id   int
	node int
	rng  *rand.Rand

	// The thread's last remote read and how many reads in a row returned
	// it (RRead's pacing).
	lastRead ptr.Ptr
	lastVal  uint64
	rereads  int
}

var _ api.Ctx = (*thread)(nil)

func (t *thread) NodeID() int      { return t.node }
func (t *thread) ThreadID() int    { return t.id }
func (t *thread) Now() int64       { return time.Since(t.e.start).Nanoseconds() }
func (t *thread) Stopped() bool    { return t.e.stopped.Load() }
func (t *thread) Rand() *rand.Rand { return t.rng }

func (t *thread) Alloc(words, align int) ptr.Ptr {
	return t.e.space.Alloc(t.node, words, align)
}

func (t *thread) Free(p ptr.Ptr) { t.e.space.Free(p) }

func (t *thread) addr(p ptr.Ptr) *uint64 { return t.e.space.WordAddr(p) }

// casWord is a CAS that reports the previous value, as both the local CAS
// and RDMA CAS APIs do in the paper's pseudocode.
func casWord(addr *uint64, old, new uint64) uint64 {
	for {
		if atomic.CompareAndSwapUint64(addr, old, new) {
			return old
		}
		prev := atomic.LoadUint64(addr)
		if prev != old {
			return prev
		}
		// The word held old by the time we loaded it but the CAS lost a
		// race in between; try again.
	}
}

// --- Local class ---
//
// Write, Fence and Pause complete before they return: the synchronous
// implementation of api.Ctx's completion contract (internal/sim is the one
// that lets them return early).

func (t *thread) Read(p ptr.Ptr) uint64     { return atomic.LoadUint64(t.addr(p)) }
func (t *thread) Write(p ptr.Ptr, v uint64) { atomic.StoreUint64(t.addr(p), v) }
func (t *thread) CAS(p ptr.Ptr, old, new uint64) uint64 {
	return casWord(t.addr(p), old, new)
}

// Fence is a no-op for memory ordering because every access above is
// already sequentially consistent via sync/atomic; it is kept so algorithm
// code matches the paper.
func (t *thread) Fence() {}

// Pause implements spin back-off: brief busy spinning, then yielding to the
// Go scheduler so heavily oversubscribed tests cannot livelock.
func (t *thread) Pause(iter int) {
	switch {
	case iter < 4:
		// brief busy wait
		for i := 0; i < 16<<iter; i++ {
			_ = i
		}
	case iter < 64:
		runtime.Gosched()
	default:
		time.Sleep(time.Microsecond)
	}
}

// SpinWhile is the loop api.Ctx defines it as: there is no executor here to
// hand the polls to.
func (t *thread) SpinWhile(p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	for iter := 0; ; iter++ {
		if got := t.Read(p); got != v {
			return got
		}
		if deadlineNS > 0 && t.Now() >= deadlineNS {
			return v
		}
		t.Pause(iter)
	}
}

// SpinUntil is the loop api.Ctx defines it as.
func (t *thread) SpinUntil(p ptr.Ptr, iter int, deadlineNS int64, done func(v uint64, expired bool) bool) (uint64, int) {
	for {
		v := t.Read(p)
		if done(v, deadlineNS > 0 && t.Now() >= deadlineNS) {
			return v, iter
		}
		t.Pause(iter)
		iter++
	}
}

func (t *thread) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	if d < 20*time.Microsecond {
		spinFor(d)
		return
	}
	time.Sleep(d)
}

// WorkLoop is the loop api.Ctx defines it as.
func (t *thread) WorkLoop(f func(now int64, stopped bool) (time.Duration, bool)) {
	for {
		d, again := f(t.Now(), t.Stopped())
		if !again {
			return
		}
		t.Work(d)
	}
}

// spinFor busy-waits for approximately d without yielding the P, which is
// the right model for a short critical-section body.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// --- Remote class ---

func (t *thread) remoteDelay() {
	if t.e.cfg.RemoteDelay > 0 {
		spinFor(t.e.cfg.RemoteDelay)
	}
}

// RRead paces a poll: a read that returns what the thread's previous
// remote read of the same word returned escalates through Pause's tiers, so
// a waiter whose releaser's goroutine is descheduled yields its P instead
// of spinning until preemption (MCS's wait loops call no Pause).
func (t *thread) RRead(p ptr.Ptr) uint64 {
	t.remoteDelay()
	v := atomic.LoadUint64(t.addr(p))
	if p == t.lastRead && v == t.lastVal {
		t.Pause(t.rereads)
		t.rereads++
	} else {
		t.lastRead, t.lastVal, t.rereads = p, v, 0
	}
	return v
}

func (t *thread) RWrite(p ptr.Ptr, v uint64) {
	t.remoteDelay()
	atomic.StoreUint64(t.addr(p), v)
}

func (t *thread) RCAS(p ptr.Ptr, old, new uint64) uint64 {
	t.remoteDelay()
	if !t.e.cfg.TornRCAS {
		return casWord(t.addr(p), old, new)
	}
	// Torn mode: remote RMWs on one word serialize against each other via
	// the per-word mutex, but the window between load and store is open to
	// local operations — exactly Table 1's missing atomicity.
	mu := t.e.lockFor(p)
	mu.Lock()
	defer mu.Unlock()
	addr := t.addr(p)
	prev := atomic.LoadUint64(addr)
	spinFor(t.e.cfg.TornGap)
	if prev == old {
		atomic.StoreUint64(addr, new)
	}
	return prev
}
