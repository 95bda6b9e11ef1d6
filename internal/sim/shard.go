// shard.go is the engine's per-node layer and the conservative windowed
// parallel executor.
//
// Every node of the simulated cluster owns a shard: its sequence counter,
// its clock, its torn-RMW book, and — through event destinations
// (event.dest) — its NIC and in-flight congestion counters and its region
// of cluster memory. Under both executors the shards are where sequence
// numbers are issued and torn state lives. The shard's event queue (one
// typed 4-ary heap) belongs to the windowed executor alone: runWindowed
// scatters the engine's global queue onto the owning shards at entry and
// returns with every shard queue empty — drained, or handed back to the
// global queue when the stop guard ends the windows early — so outside a
// windowed Run all pending events are on the global queue (where Step and
// the serial Run pop them).
//
// The windowed executor is classic conservative parallel discrete-event
// simulation. Nodes interact only through verbs with a hard latency floor
// — model.Params.RemoteWireNS, the engine's lookahead — so an event at the
// global minimum head time `minHead` cannot cause any cross-shard event
// before minHead+lookahead. Everything in [minHead, minHead+lookahead) is
// therefore safe to execute, per shard, concurrently:
//
//	entry:    scatter the global queue onto the owning shards' queues
//	barrier:  drain cross-shard outboxes into owning shards' queues
//	window:   wend = min(shard heads) + lookahead
//	guard:    if the stop guard says a stop could land in the window, move
//	          every shard queue back to the global queue and return: Run
//	          finishes on the serial loop
//	execute:  each shard pops (at, seq) order while head < wend, on the
//	          worker that owns it — one of up to `workers` goroutines (slots
//	          permitting); cross-shard sends buffer in the sender's outbox
//	repeat    until no events remain
//
// Threads switch exactly as they do under the serial executor: the worker
// that owns a shard is the resumer (Thread.resume) of that shard's
// coroutines, and a blocking thread suspends back to it (Thread.suspend).
// Ownership is fixed for the Run — worker w of `width` runs the shards with
// node % width == w (windowPool) — so a shard's heap, its threads and their
// coroutine stacks are only ever touched from one goroutine between entry and
// exit, and stay in one core's cache; two Runs of one engine may give a shard
// different owners, and the join at the end of the first orders them.
//
// The windows pay before any second core does. Inside one a node's threads
// run ahead of every other node's events, so a local op is popped from a
// heap of its own node's events only, and is more often advanced in place
// (Thread.tryAdvance) with no event queued at all: at GOMAXPROCS=1 on the
// 2-CPU host the repo is measured on, the paper-scale corner (16 nodes x 12
// threads, ~1 000 events and 16 active shards per window) costs about 112
// host ns per event on one worker against 151 on the serial executor. A
// second worker on a second core splits each window further; see windowPool
// for what that took, and WindowStats for how to read a Run's windows.
//
// Cross-shard sends are asserted (panic) to be at least one lookahead
// ahead of the sending shard's clock, so no shard ever receives an event
// inside a window it already executed — time never regresses, and the
// merged schedule is the serial schedule. Worker counts only set the
// degree of concurrency; window boundaries depend on event times alone,
// so results are bit-identical from 1 worker to N.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alock/internal/ptr"
	"alock/internal/slots"
)

// seqShardShift positions the issuing shard's node ID in the high bits of
// every sequence number: ties on the virtual clock break first by issuing
// node, then by that shard's local issue order. Both components are
// mode-independent — local issue order is preserved per shard even when
// shards run concurrently — which is what makes tie-breaking (and hence
// the whole schedule) identical across engines.
const seqShardShift = 56

// shard is one node's slice of the engine.
type shard struct {
	e    *Engine
	node int

	seqCtr uint64     // local issue counter (low bits of seq)
	q      eventQueue // this node's pending events (during a windowed Run only)

	// loopInFlight / remoteInFlight count the operations of each class
	// currently occupying this node's NIC; the congestion model inflates verb
	// service with these (each in-flight op is a concurrent DMA stream
	// competing for the host's PCIe link). Touched only from this shard's
	// timeline: the source's share from issue to completion, the responder's
	// from request arrival to execution.
	loopInFlight   int
	remoteInFlight int

	// tornHeld lists the words on this node currently mid-tear under a remote
	// RMW (model.TornRCAS): the responder serializes remote atomics, so
	// other remote RMWs on the word stall until the write half lands. A tear
	// lasts TornGapNS, so a handful of words at most are in it at once and a
	// linear scan beats hashing the pointer (holdTorn, releaseTorn). Owned by
	// this shard's timeline under both executors.
	tornHeld []ptr.Ptr

	// Windowed-executor state. now is the shard clock (threads observe it
	// via Ctx.Now while windowed); wend is the current window's exclusive
	// end; events counts dispatches since Run began, folded into the
	// engine counter at the final barrier. outbox buffers cross-shard
	// sends until the next barrier. active marks the shard as executing the
	// current window, for the access auditor. trap carries a dispatch
	// failure or a thread body's panic to the barrier, which re-panics it
	// on the Run caller.
	now    int64
	wend   int64
	events uint64
	outbox []event
	active atomic.Bool
	trap   error
}

// tornWrite is the write half of a torn remote CAS, captured at read-half
// time on the responder shard (see Thread.torn).
type tornWrite struct {
	p        ptr.Ptr
	old, val uint64
	read     uint64 // read-half result; the write lands iff read == old
}

func newShard(e *Engine, node int) *shard {
	return &shard{e: e, node: node}
}

// holdTorn marks the word at p as mid-tear for the remote RMW whose read half
// is executing, and reports whether it could: false means another remote RMW
// holds the word and the caller must look again later.
func (s *shard) holdTorn(p ptr.Ptr) bool {
	for _, held := range s.tornHeld {
		if held == p {
			return false
		}
	}
	s.tornHeld = append(s.tornHeld, p)
	return true
}

// releaseTorn ends the tear holdTorn began on p: its write half has landed.
func (s *shard) releaseTorn(p ptr.Ptr) {
	for i, held := range s.tornHeld {
		if held == p {
			last := len(s.tornHeld) - 1
			s.tornHeld[i] = s.tornHeld[last]
			s.tornHeld = s.tornHeld[:last]
			return
		}
	}
}

// nextSeq issues the next sequence number on this shard's timeline.
func (s *shard) nextSeq() uint64 {
	seq := uint64(s.node)<<seqShardShift | s.seqCtr
	s.seqCtr++
	return seq
}

// runWindow executes this shard's events with at < s.wend in (at, seq)
// order, on the worker that owns the shard: wake-ups and
// completions resume their thread until it suspends again or exits;
// protocol events execute inline. A time regression, a blown event budget
// or a thread body's panic traps (recorded in s.trap; the barrier
// re-panics it) — the engine is unusable afterwards.
func (s *shard) runWindow() {
	defer s.active.Store(false)
	for s.q.len() > 0 {
		if s.q.min().at >= s.wend {
			return
		}
		ev := s.q.pop()
		if ev.at < s.now {
			s.trap = fmt.Errorf("sim: shard %d: time went backwards (%dns after %dns)", s.node, ev.at, s.now) //lint:allow allocfree trap path: the engine is unusable after this, rate is zero in a healthy run
			return
		}
		s.now = ev.at
		s.events++
		if s.events > s.e.maxEvents {
			s.trap = fmt.Errorf("sim: shard %d: exceeded %d events at t=%dns — livelock?", s.node, s.e.maxEvents, s.now) //lint:allow allocfree trap path: the engine is unusable after this, rate is zero in a healthy run
			return
		}
		if hook := s.e.onWindowEvent; hook != nil {
			hook(s, ev)
		}
		if ev.kind == evWake || ev.kind == evComplete {
			if ev.th.nops != 0 && !ev.th.step() {
				continue // the thread's next local op is under way: it stays parked
			}
			if s.trap = ev.th.resume(); s.trap != nil {
				return
			}
			continue
		}
		s.e.execProtocol(s, ev)
	}
}

// cacheLine separates words that different workers write, so that a worker
// polling one does not take the line from under the writer of another.
const cacheLine = 64

// spinBudget is how long a pool worker polls for the word it waits on before
// it parks on its wake channel, and spinPolls how many polls it makes between
// two reads of the host clock. On the paper-scale corner (16 nodes x 12
// threads, two workers) a window is ~150us of work; a worker waits for the
// other through the tail of its share and the coordinator's barrier phase:
// under 32us nine times in ten, under 128us 98 times in a hundred, the rest a
// lost time slice. The bound is what keeps a worker whose partner has lost its
// CPU from holding a core for longer than about one window.
const (
	spinBudget = 200 * time.Microsecond
	spinPolls  = 256
)

// retired is the epoch that tells the helpers the Run is over.
const retired = ^uint64(0)

// parker is the blocking half of a spin-then-park wait. The waiter raises
// parked, looks at what it waits for once more, and blocks on wake; whoever
// makes the wait's condition true afterwards calls unpark. The side that
// swaps parked back to zero owns the wake-up: a signaller that wins sends
// exactly one token, a waiter that wins (cancel) needs none — so the channel
// never holds more than one token and a send never blocks.
type parker struct {
	parked atomic.Uint32
	wake   chan struct{}
}

// unpark wakes the waiter if it is parked (or about to be) and reports
// whether it did. It must follow the store that satisfies the waiter.
func (k *parker) unpark() bool {
	if k.parked.Load() == 0 || !k.parked.CompareAndSwap(1, 0) {
		return false
	}
	k.wake <- struct{}{}
	return true
}

// cancel withdraws a raised parked flag: the waiter saw its condition hold on
// the second look. If a signaller took the flag first its token is on the
// way, and is consumed here so that it cannot satisfy a later wait.
func (k *parker) cancel() {
	if !k.parked.CompareAndSwap(1, 0) {
		<-k.wake
	}
}

// await returns word's value once it has reached want: it polls for at most
// budget, then parks on k — counted in *parks — until unparked, and looks
// again. Sequentially consistent atomics close the window between the second
// look and the block: the waiter stores parked then loads word, the signaller
// stores word then loads parked, so one of them sees the other.
func await(word *atomic.Uint64, want uint64, budget time.Duration, k *parker, parks *uint64) uint64 {
	for {
		var start time.Time // read at the first checkpoint: most waits end before it
		for i := 1; budget > 0; i++ {
			if v := word.Load(); v >= want {
				return v
			}
			if i%spinPolls != 0 {
				continue
			}
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > budget {
				break
			}
		}
		*parks++
		k.parked.Store(1)
		if v := word.Load(); v >= want {
			k.cancel()
			return v
		}
		<-k.wake
	}
}

// worker is what the coordinator and every helper have alike: the shards the
// worker owns for the whole Run (node % width, in node order) and its
// telemetry, which nobody else reads before the pool is closed.
type worker struct {
	own          []*shard
	shardWindows uint64
	parks        uint64
}

// runOwn executes the current window on the worker's active shards.
func (w *worker) runOwn() {
	for _, s := range w.own {
		if s.active.Load() {
			s.runWindow()
			w.shardWindows++
		}
	}
}

// helper is a worker with a goroutine of its own. done is the last epoch the
// helper has finished. The coordinator polls it and reads the park flag, so
// the two share a line the helper writes once per window, apart from the
// counters it bumps per shard.
type helper struct {
	_    [cacheLine]byte
	done atomic.Uint64
	park parker
	_    [cacheLine]byte
	worker
	_ [cacheLine]byte
}

// windowPool is the worker set of one windowed Run: the coordinator (the
// Run caller, worker 0) and one helper goroutine per execution slot the
// caller acquired, spawned once and joined by close.
//
// Ownership is fixed: worker w of width runs exactly the shards with
// node % width == w, every window, so a shard's heap, its threads' FIFOs and
// their coroutine stacks stay in one core's cache. A shard is handed over by
// raising its active flag (activate), and that flag is all a helper reads to
// find its work.
//
// The barrier is two waits of the same shape (await). The coordinator
// publishes a window by storing the next epoch; a helper polls the epoch,
// runs its active shards and stores the epoch to its done word; the
// coordinator runs its own shards and then polls the done words of the
// helpers it gave work to. Either side parks when its spin budget runs out
// and is woken by the other only if its parked flag is up. A window whose
// active shards all belong to the coordinator publishes nothing.
//
// A helper that had no work in a window may still be looking through its
// shards when the coordinator raises flags for the next one. It then runs
// such a shard before the epoch is stored — correctly: the flag is raised
// after everything the window needs (wend, the delivered outboxes), and the
// coordinator, which counted the shard against this helper, waits for the
// done word the helper stores after its next look.
type windowPool struct {
	e     *Engine
	width int
	// Coordinator-only state: its worker half, the last epoch published, the
	// active shards counted per worker for the window being set up, and the
	// telemetry closed into Engine.winStats.
	coord    worker
	window   uint64
	assigned []int
	stats    WindowStats
	helpers  []helper
	joined   sync.WaitGroup
	// spin is how long a worker polls before it parks: spinBudget, or zero
	// when the process cannot run all the workers at the same time.
	spin time.Duration

	// What the helpers read every window, on a line the coordinator writes
	// once per window: the epoch, and the coordinator's own park path.
	_         [cacheLine]byte
	epoch     atomic.Uint64
	coordPark parker
	_         [cacheLine]byte
}

func newWindowPool(e *Engine, helpers int) *windowPool {
	width := 1 + helpers
	p := &windowPool{e: e, width: width, assigned: make([]int, width), stats: WindowStats{Width: width, ShardWindows: make([]uint64, width)}, helpers: make([]helper, helpers), coordPark: parker{wake: make(chan struct{}, 1)}} //lint:allow allocfree pool construction runs once per windowed Run, not per window
	if width <= runtime.GOMAXPROCS(0) && width <= runtime.NumCPU() {
		p.spin = spinBudget
	}
	for _, s := range e.shards {
		w := p.worker(s.node % width)
		w.own = append(w.own, s)
	}
	p.joined.Add(helpers)
	for i := range p.helpers {
		go p.helperLoop(&p.helpers[i]) //lint:allow allocfree helpers are spawned once per Run and joined when it ends
	}
	return p
}

// worker returns worker w's common half: the coordinator is worker 0.
func (p *windowPool) worker(w int) *worker {
	if w == 0 {
		return &p.coord
	}
	return &p.helpers[w-1].worker
}

// helperLoop is a helper's life: wait for an epoch it has not seen, run the
// active shards it owns, say so, and tell the coordinator if that is parked.
func (p *windowPool) helperLoop(h *helper) {
	defer p.joined.Done()
	h.park.wake = make(chan struct{}, 1) // before the first park, which is what publishes it
	seen := uint64(0)
	for {
		seen = await(&p.epoch, seen+1, p.spin, &h.park, &h.parks)
		if seen == retired {
			return
		}
		h.runOwn()
		h.done.Store(seen)
		if p.coordPark.unpark() {
			p.yield()
		}
	}
}

// yield is what a worker does between waking another and waiting for it: it
// gives up its P. The woken goroutine is queued behind the waker, on a P the
// waker is about to hold for a spin budget, and the only other way it gets
// to run is an idle OS thread waking up to steal it — 75us on the 2-vCPU host
// this was written on when that thread has only just gone to sleep, 1.7ms
// when its core has gone idle. A waker that spins through that runs out of
// budget and parks, the partner wakes it in turn, and one lost time slice has
// become a park per window for the rest of the Run (measured: 71 % of windows
// parked on the paper-scale corner at a 50us budget; 9 400 host ns per event
// against 60 serial on windows of 35 events at 200us). Yielding lets the
// woken worker start now, and the waker — which had nothing to do but wait
// for it — is the one that takes the thread wake-up.
func (p *windowPool) yield() {
	if p.spin > 0 {
		runtime.Gosched()
	}
}

// activate hands shard s to its owner for the window ending at wend.
func (p *windowPool) activate(s *shard, wend int64) {
	s.wend = wend
	p.assigned[s.node%p.width]++
	s.active.Store(true)
}

// runWindow executes the window activate has set up and returns when every
// activated shard has run: it publishes the window if a helper owns any of
// it, runs the coordinator's shards, and waits for those helpers.
func (p *windowPool) runWindow() {
	active, helping := p.assigned[0], false
	for i := range p.helpers {
		active += p.assigned[i+1]
		helping = helping || p.assigned[i+1] > 0
	}
	p.stats.Windows++
	if active == 1 {
		p.stats.SingleShard++
	}
	woke := false
	if helping {
		p.window++
		p.epoch.Store(p.window)
		for i := range p.helpers {
			if p.assigned[i+1] > 0 && p.helpers[i].park.unpark() {
				p.stats.Wakes++
				woke = true
			}
		}
	}
	p.coord.runOwn()
	p.assigned[0] = 0
	if woke {
		p.yield()
	}
	for i := range p.helpers {
		if p.assigned[i+1] > 0 {
			await(&p.helpers[i].done, p.window, p.spin, &p.coordPark, &p.coord.parks)
			p.assigned[i+1] = 0
		}
	}
}

// recordWindow books the events the window just executed dispatched.
func (p *windowPool) recordWindow(events uint64) {
	p.stats.Events += events
	b := bits.Len64(events)
	if last := len(p.stats.EventsLog2) - 1; b > last {
		b = last
	}
	p.stats.EventsLog2[b]++
}

// close retires the helpers, waits for them to return, and only then — a
// helper's counters are its own until it has — closes the Run's telemetry
// into the engine. It runs on every way out of runWindowed, traps included.
func (p *windowPool) close() {
	p.epoch.Store(retired)
	for i := range p.helpers {
		p.helpers[i].park.unpark()
	}
	p.joined.Wait()
	st := &p.stats
	st.CoordParks = p.coord.parks
	st.ShardWindows[0] = p.coord.shardWindows
	for i := range p.helpers {
		st.ShardWindows[i+1] = p.helpers[i].shardWindows
		st.Parks += p.helpers[i].parks
	}
	p.e.winStats = *st
}

// WindowStats is the windowed executor's account of one Run: exact counts,
// taken per window and per shard-window, never per event.
type WindowStats struct {
	// Width is the number of workers the Run executed on: the coordinator
	// plus the helpers the slot budget granted.
	Width int
	// Windows is the number of safe windows executed, SingleShard how many of
	// them had one active shard, and ShardWindows[w] how many shard-windows
	// worker w ran (worker 0 is the coordinator; the sum over Windows is the
	// mean number of active shards).
	Windows      uint64
	SingleShard  uint64
	ShardWindows []uint64
	// Events is the number of events dispatched inside windows, and
	// EventsLog2[i] the number of windows that dispatched n of them with
	// bits.Len64(n) == i: bucket 0 is no event, bucket i is [2^(i-1), 2^i),
	// the last bucket is open-ended.
	Events     uint64
	EventsLog2 [20]uint64
	// Parks counts the times a helper's spin budget ran out waiting for a
	// window, Wakes the wake-ups the coordinator issued to parked helpers (a
	// helper still parked when the Run ends is woken by close, uncounted),
	// and CoordParks the times the coordinator parked waiting for a helper.
	Parks      uint64
	Wakes      uint64
	CoordParks uint64
	// HandoffAt is the virtual time at which the stop guard handed the Run to
	// the serial loop — the head of the window it did not run — and 0 if it
	// never did; SerialEvents is the number of events the serial loop then
	// dispatched. Events + SerialEvents is everything the Run dispatched.
	HandoffAt    int64
	SerialEvents uint64
}

// WindowStats returns the telemetry of the engine's last windowed Run (the
// zero value if there was none).
func (e *Engine) WindowStats() WindowStats { return e.winStats }

// clearWindowed is runWindowed's deferred exit hook.
func (e *Engine) clearWindowed() { e.windowed = false }

// runWindowed is Run's windowed driver. Concurrency is governed by
// the process-wide execution-slot budget (internal/slots): the Run caller
// owns one implicit slot, and each helper goroutine beyond it needs an
// extra slot, capped by the configured worker count and the node count —
// which is what entitles a helper to spin: a slot is a P nobody else was
// promised. One worker, asked for or all the budget granted, is the
// coordinator owning every shard. The window structure (and therefore every
// result) is identical at any width; only wall-clock time changes. It
// returns with every event dispatched, or at the barrier where the stop
// guard asked for the serial loop, with the rest of them on the global queue.
func (e *Engine) runWindowed() {
	want := e.workers
	if n := len(e.shards); want > n {
		want = n
	}
	extra := slots.TryAcquire(want - 1)
	defer slots.Release(extra)

	e.windowed = true
	defer e.clearWindowed()
	if e.audit {
		e.curShard.Store(auditParallel)
		defer e.curShard.Store(auditIdle)
	}
	for _, s := range e.shards {
		s.now = e.now
		s.events = 0
	}
	// Hand the pending events over to their owning shards; the loop below
	// ends only when every shard queue has drained again.
	for e.q.len() > 0 {
		ev := e.q.pop()
		e.shards[ev.dest()].q.push(ev)
	}

	pool := newWindowPool(e, extra)
	defer pool.close()
	total := e.events // dispatched so far, as of the last barrier
	for {
		// Barrier: deliver cross-shard sends to their owning shards.
		for _, s := range e.shards {
			for _, ev := range s.outbox {
				e.shards[ev.dest()].q.push(ev)
			}
			s.outbox = s.outbox[:0]
		}
		// Global minimum head; done when every queue is empty.
		minHead, any := int64(0), false
		for _, s := range e.shards {
			if s.q.len() == 0 {
				continue
			}
			if h := s.q.min().at; !any || h < minHead {
				minHead, any = h, true
			}
		}
		if !any {
			break
		}
		// Aggregate event budget (per-shard overshoot traps in runWindow).
		if total > e.maxEvents {
			e.foldShards()
			e.stopThreads()
			panic(fmt.Errorf("sim: exceeded %d events at t=%dns — livelock?", e.maxEvents, e.now))
		}
		if hook := e.onBarrier; hook != nil {
			hook()
		}
		if guard := e.stopGuard; guard != nil && guard(e.lookahead) {
			pool.stats.HandoffAt = minHead
			e.handOff()
			return
		}
		// The safe window: nothing can cross shards before minHead+lookahead.
		wend := minHead + e.lookahead
		for _, s := range e.shards {
			if s.q.len() > 0 && s.q.min().at < wend {
				pool.activate(s, wend)
			}
		}
		pool.runWindow()
		before := total
		total = e.events
		for _, s := range e.shards {
			if s.trap != nil {
				e.foldShards()
				e.stopThreads()
				panic(s.trap)
			}
			total += s.events
		}
		pool.recordWindow(total - before)
	}
	e.foldShards()
}

// handOff ends a windowed Run at a barrier with events still pending: it moves
// every shard queue back onto the global queue and folds the shards, leaving
// the engine as the serial executor would have it at the same point — every
// pending event lies at or after the last window's end, so nothing the serial
// loop pops next is behind the folded clock.
func (e *Engine) handOff() {
	for _, s := range e.shards {
		for s.q.len() > 0 {
			e.q.push(s.q.pop())
		}
	}
	e.foldShards()
}

// foldShards commits the windowed run's per-shard state back to the
// engine: the clock advances to the latest shard clock, the per-shard
// event counts fold into the engine counter, and the stop flag is
// recomputed for the serial Stopped path.
func (e *Engine) foldShards() {
	for _, s := range e.shards {
		if s.now > e.now {
			e.now = s.now
		}
		e.events += s.events
		s.events = 0
	}
	if e.stopRequested || e.now >= e.stopAt {
		e.stopped = true
	}
}
