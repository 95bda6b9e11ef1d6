// shard.go is the engine's per-node layer and the conservative windowed
// parallel executor.
//
// Every node of the simulated cluster owns a shard: its torn-RMW book, its
// threads parked in SpinWhile or SpinUntil, a pointer to the timeline it runs
// on, and — through event destinations (event.dest) — its NIC and in-flight
// congestion counters and its region of cluster memory. Under both executors the shards
// are where torn state and parked spinners live. Each shard also owns a
// timeline (shard.own) that only the windowed executor runs it on: at entry
// runWindowed scatters the engine's timeline onto the shards' own — clock,
// and each shard's pending events — and every way out gathers them back,
// drained, or with what is left when the stop guard ends the windows early.
// Outside a windowed Run every shard runs on the engine's timeline (where
// processNextEvent and the serial Run pop), and its own is empty.
//
// The windowed executor is classic conservative parallel discrete-event
// simulation. Nodes interact only through verbs with a hard latency floor
// — model.Params.RemoteWireNS, the engine's lookahead — so an event at the
// global minimum head time `minHead` cannot cause any cross-shard event
// before minHead+lookahead. Everything in [minHead, minHead+lookahead) is
// therefore safe to execute, per shard, concurrently:
//
//	entry:    scatter the engine's timeline onto the shards' own
//	barrier:  drain cross-shard outboxes into owning shards' queues
//	window:   wend = min(shard heads) + lookahead
//	guard:    if the stop guard says a stop could land in the window, return:
//	          Run finishes on the serial loop
//	execute:  each shard pops (at, seq) order while head < wend, on the
//	          worker that owns it — one of up to `workers` goroutines (slots
//	          and, at auto width, window sizes permitting); cross-shard sends
//	          buffer in the sender's outbox
//	repeat    until no events remain
//	exit:     gather the shards' timelines back onto the engine's
//
// Threads switch exactly as they do under the serial executor: the worker
// that owns a shard is the resumer (Thread.resume) of that shard's
// coroutines, and a blocking thread suspends back to it (Thread.suspend).
// Ownership is fixed for the Run — worker w of `width` runs the shards with
// node % width == w (windowPool) — so a shard's heap, its threads and their
// coroutine stacks are only ever touched from one goroutine between entry and
// exit, and stay in one core's cache; two Runs of one engine may give a shard
// different owners, and the join at the end of the first orders them. An
// auto-width Run that goes wide changes owners once, at a barrier: the
// coordinator, which owned every shard, starts the helpers there, and the go
// statement orders what it did before them.
//
// A thread parked in SpinWhile or SpinUntil costs its shard nothing per poll:
// a store to its word pushes the one poll that sees it, and the polls between
// are credited, not dispatched (spin.go) — a wait costs events per store, not
// per poll. Near the event budget, which counts dispatched events only, the
// barrier hands the Run to the serial loop (nearBudget), so that the budget
// traps where the serial loop's would.
//
// The windows pay before any second core does. Inside one a node's threads
// run ahead of every other node's events, so a local op is popped from a
// heap of its own node's events only, and is more often advanced in place
// (Thread.tryAdvance) with no event queued at all: at GOMAXPROCS=1 on the
// 2-CPU host the repo is measured on, the paper-scale corner (16 nodes x 12
// threads, ~1 000 events and 16 active shards per window) costs about 112
// host ns per event on one worker against 151 on the serial executor. A
// second worker on a second core splits each window further, at the price of
// a barrier round trip per window; see windowPool for what that took, and
// WindowStats for how to read a Run's windows.
//
// When the pool goes wide: at an explicit width (WithShards(n), n >= 2) from
// the first window to the last, with as many helpers as the slot budget
// grants; at auto width (WithShards(0), the harness default) only once the
// Run's first windows carry crossoverEvents events each on average — then
// with as many helpers as the budget grants, up to its capacity or the CPU
// count — and never if they carry fewer (widen). A wide auto pool whose
// windows shrink, or whose helpers turn out to have no core of their own,
// goes back to one worker (check). Small-window Runs stay on one worker,
// where a barrier costs no round trip.
//
// Cross-shard sends are asserted (panic) to be at least one lookahead
// ahead of the sending shard's clock, so no shard ever receives an event
// inside a window it already executed — time never regresses, and the
// merged schedule is the serial schedule. Worker counts only set the
// degree of concurrency; window boundaries depend on event times alone,
// so results are bit-identical from 1 worker to N.
package sim

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alock/internal/ptr"
	"alock/internal/slots"
)

// shard is one node's slice of the engine.
type shard struct {
	e    *Engine
	node int

	// tl is the timeline the shard's events run on: the engine's, which every
	// shard shares, except during a windowed Run, when it is own.
	tl *timeline
	// parked lists the node's threads parked in a wait loop (spin.go), with
	// room for all nthreads of them — every store on the node looks at it.
	parked   []*Thread
	nthreads int
	own      timeline

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

	// Windowed-executor state. outbox buffers cross-shard sends until the
	// next barrier. active marks the shard as executing the current window,
	// for the access auditor. trap carries a dispatch failure or a thread
	// body's panic to the barrier, which re-panics it on the Run caller.
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
	return &shard{e: e, node: node, tl: &e.tl}
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

// runWindow executes this shard's events before the window end in (at, seq)
// order, on the worker that owns the shard — dispatch on the shard's own
// timeline. A trap is recorded in s.trap for the barrier to re-panic; the
// engine is unusable afterwards.
func (s *shard) runWindow() {
	defer s.active.Store(false)
	s.trap = s.e.dispatch(&s.own, math.MaxInt)
}

// cacheLine separates words that different workers write, so that a worker
// polling one does not take the line from under the writer of another.
const cacheLine = 64

// spinBudget is how long a pool worker polls for the word it waits on before
// it parks on its wake channel, and spinPolls how many polls it makes between
// two reads of the host clock (each followed by a yield of its P: await). On the paper-scale corner (16 nodes x 12
// threads, two workers) a window is ~150us of work; a worker waits for the
// other through the tail of its share and the coordinator's barrier phase:
// under 32us nine times in ten, under 128us 98 times in a hundred, the rest a
// lost time slice. The bound is what keeps a worker whose partner has lost its
// CPU from holding a core for longer than about one window.
const (
	spinBudget = 200 * time.Microsecond
	spinPolls  = 256
)

// An auto-width Run (WithShards(0)) starts on the coordinator alone and goes
// wide only when its windows pay for the barrier. Every probeWindows windows,
// while it is still one worker, it looks at the mean events per window since
// its last look (widen): at crossoverEvents or more it asks the slot budget
// for helpers — asking again at the next look if it was granted none — and
// below it stays one worker to the end. Once wide, it looks every checkNS
// whether going wide still pays (check), and gives the helpers back if not.
//
// crossoverEvents is where a second worker starts to pay on the 2-vCPU host
// the repo is measured on. cmd/bench's engine/barrier case prices what a
// second worker adds to every window before it saves anything: a window of
// two events costs ~0.9us more on two workers than on one (BENCH_0021.json).
// A paper-scale event costs 110-170 host ns and two workers save at most half
// of that, so the floor is ~15 events per window; the measured crossover is
// ten times that, because a window's work splits unevenly between the
// workers and the barrier delivers cross-shard sends into queues the other
// core last touched. On Figure 5's high-contention sweep (45 configs, three
// alternations of one worker against two) configs under 80 events per window
// lose up to 1.9x on two workers, 126-158 break even, and 254 and up gain
// 13-32 %.
const (
	probeWindows    = 64
	crossoverEvents = 160
	checkNS         = int64(20 * time.Millisecond)
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

// waits is one worker's account of its barrier waits: how many ended in a
// park, and host ns spent waiting in all and parked. The worker's caller
// times each wait; await times the parks inside it.
type waits struct {
	parks  uint64
	waitNS int64
	parkNS int64
}

// await returns word's value once it has reached want: it polls for at most
// budget, then parks on k — counted and timed in w — until unparked, and
// looks again. Sequentially consistent atomics close the window between the
// second look and the block: the waiter stores parked then loads word, the
// signaller stores word then loads parked, so one of them sees the other.
//
// A spinning waiter gives up its P at every clock read (runtime.Gosched). A
// woken partner is queued on the P of the goroutine that woke it; when that
// is the waiter's P and every other P's thread is asleep, the partner runs
// only once a sleeping thread wakes to steal it — 75us to 1.7ms on a 2-vCPU
// VM, past the spin budget. A waiter that held its P through the budget then
// parked, woke the partner on its own P in turn, and the two stayed on one P
// from then on: the bimodal 16x12 runs, 0.42-0.49s on two workers eight
// times in ten and 1.28-1.39s, parked in 57-59 % of windows, the other two.
// Yielding lets the partner run at once, and each yield (which queues the
// waiter globally and wakes an idle P) gets the second P back.
func await(word *atomic.Uint64, want uint64, budget time.Duration, k *parker, w *waits) uint64 {
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
			runtime.Gosched()
		}
		w.parks++
		k.parked.Store(1)
		if v := word.Load(); v >= want {
			k.cancel()
			return v
		}
		parked := time.Now()
		<-k.wake
		w.parkNS += int64(time.Since(parked))
	}
}

// worker is what the coordinator and every helper have alike: the shards the
// worker owns (node % width, in node order, from the pool's widest point on)
// and its telemetry, which nobody else reads before the pool is closed.
type worker struct {
	own          []*shard
	shardWindows uint64
	waits        waits
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
// Run acquired — spawned when the pool is built for an explicit width, or at
// a barrier where widen decides to for an auto one, and joined by close or,
// when going wide stops paying, by check.
//
// Ownership is fixed once the helpers exist: worker w of width runs exactly
// the shards with node % width == w, every window, so a shard's heap, its
// threads' FIFOs and their coroutine stacks stay in one core's cache. A shard
// is handed over by raising its active flag (activate), and that flag is all
// a helper reads to find its work.
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
	// active shards counted per worker for the window being set up, the
	// telemetry closed into Engine.winStats, and the host clock's origin and
	// its reading when the last window on a wide pool ended.
	coord    worker
	window   uint64
	assigned []int
	stats    WindowStats
	start    time.Time
	lastEnd  int64
	helpers  []helper
	joined   sync.WaitGroup
	// slots is the extra execution slots the helpers hold, and widest the
	// most workers the pool has had at once. An auto pool may grow to limit
	// workers: nextLook is the window count at which it looks next (never,
	// for an explicit width), retires how often it has given its helpers
	// back, wideAfter the host clock before which it may not take them
	// again, and lookEvents, lookWindows, lookClock and lookCPU where the
	// last look left off.
	slots                   int
	widest                  int
	limit                   int
	retires                 int
	wideAfter               int64
	nextLook                uint64
	lookEvents, lookWindows uint64
	lookClock, lookCPU      int64
	// spin is how long a worker polls before it parks: spinBudget, or zero
	// when the process cannot run all the workers at the same time.
	spin time.Duration

	// What the helpers read every window, on a line the coordinator writes
	// once per window: the epoch, the host clock at which it was published,
	// and the coordinator's own park path.
	_         [cacheLine]byte
	epoch     atomic.Uint64
	published atomic.Int64
	coordPark parker
	_         [cacheLine]byte
}

// newWindowPool builds the pool of a Run that may use up to limit workers:
// with as many as it wins slots for at once, or, for an auto Run, the
// coordinator alone until widen says the windows pay.
func newWindowPool(e *Engine, limit int, auto bool) *windowPool {
	limit = max(1, limit)
	p := &windowPool{e: e, width: 1, widest: 1, limit: limit, nextLook: math.MaxUint64, assigned: make([]int, 1, limit), start: time.Now(), coordPark: parker{wake: make(chan struct{}, 1)}}
	p.stats.ShardWindows, p.stats.SpinNS, p.stats.ParkNS = make([]uint64, limit), make([]int64, limit), make([]int64, limit)
	p.coord.own = append([]*shard(nil), e.shards...)
	switch {
	case limit < 2:
	case auto:
		p.nextLook = probeWindows
	default:
		if extra := slots.TryAcquire(limit - 1); extra > 0 {
			p.spawn(extra)
		}
	}
	return p
}

// spawn widens the pool to the coordinator plus helpers, each of which holds
// an execution slot, at a barrier: it deals the shards out by node % width
// and starts the helper goroutines, which wait for the window after the last
// one published. A Run widens at most a few times, never per window.
func (p *windowPool) spawn(helpers int) {
	p.slots, p.width = helpers, 1+helpers
	p.widest = max(p.widest, p.width)
	p.assigned = p.assigned[:p.width]
	p.helpers = make([]helper, helpers)
	p.coord.own = p.coord.own[:0]
	for _, s := range p.e.shards {
		w := p.worker(s.node % p.width)
		w.own = append(w.own, s)
	}
	if p.width <= runtime.GOMAXPROCS(0) && p.width <= runtime.NumCPU() {
		p.spin = spinBudget
	}
	p.lastEnd = p.clock()
	p.joined.Add(helpers)
	for i := range p.helpers {
		go p.helperLoop(&p.helpers[i], p.window)
	}
}

// widen spawns as many helpers as the slot budget grants, up to limit-1, if
// the windows since the last look carried crossoverEvents events each on
// average; it stops looking for the rest of the Run if they did not, and
// looks again probeWindows later if the budget had no slot to give.
func (p *windowPool) widen() {
	events, windows := p.stats.Events-p.lookEvents, p.stats.Windows-p.lookWindows
	p.lookEvents, p.lookWindows = p.stats.Events, p.stats.Windows
	if events < crossoverEvents*windows {
		p.nextLook = math.MaxUint64
		return
	}
	p.nextLook = p.stats.Windows + probeWindows
	if p.retires > 0 && p.clock() < p.wideAfter {
		return
	}
	if extra := slots.TryAcquire(p.limit - 1); extra > 0 {
		p.spawn(extra)
		if p.stats.WideAt == 0 {
			p.stats.WideAt = p.stats.Windows
		}
		p.lookClock, p.lookCPU = p.lastEnd, processCPU()
	}
}

// check is a wide auto pool's look at whether going wide still pays, over
// at least checkNS of wide windows since the last look. It pays while the
// windows carry crossoverEvents events each on average and the workers have
// a core each: every worker runs or spins through a window, so the process
// then burns about a CPU per worker, and half a CPU short means a helper
// shares a core — on a host that has lent the other one out, or queued
// behind the coordinator on one P — and the pool pays every barrier while
// splitting nothing. When it does not pay, check retires the helpers, and
// widen may spawn them again once the pool has run on one worker for twice
// checkNS, twice as long again after every further retirement (up to 64
// times checkNS): a host that has lost a core for good costs one stint of
// checkNS per doubling.
func (p *windowPool) check() {
	p.nextLook = p.stats.Windows + probeWindows
	wall := p.lastEnd - p.lookClock
	if wall < checkNS {
		return
	}
	cpu := processCPU()
	used := cpu - p.lookCPU
	events, windows := p.stats.Events-p.lookEvents, p.stats.Windows-p.lookWindows
	p.lookClock, p.lookCPU = p.lastEnd, cpu
	p.lookEvents, p.lookWindows = p.stats.Events, p.stats.Windows
	cored := cpu < 0 || 2*used >= int64(2*p.width-1)*wall
	if cored && events >= crossoverEvents*windows {
		return
	}
	p.retire()
	p.retires++
	p.stats.Retires++
	p.stats.RetiredAt = p.stats.Windows
	p.wideAfter = p.lastEnd + checkNS<<min(p.retires, 6)
}

// retire joins the helpers and hands every shard back to the coordinator:
// the pool is one worker again, and helpers spawned later wait for the
// window after the last one published.
func (p *windowPool) retire() {
	p.join()
	p.width, p.assigned = 1, p.assigned[:1]
	p.coord.own = p.coord.own[:len(p.e.shards)]
	copy(p.coord.own, p.e.shards)
	p.epoch.Store(p.window)
}

// join tells the helpers to return and waits until they have, then — a
// helper's counters are its own until it has — folds their telemetry into
// the Run's and gives their slots back.
func (p *windowPool) join() {
	p.epoch.Store(retired)
	for i := range p.helpers {
		p.helpers[i].park.unpark()
	}
	p.joined.Wait()
	for i := range p.helpers {
		p.fold(i+1, &p.helpers[i].worker)
	}
	p.helpers = nil
	slots.Release(p.slots)
	p.slots = 0
}

// fold adds worker w's telemetry to the Run's.
func (p *windowPool) fold(w int, wk *worker) {
	st := &p.stats
	st.ShardWindows[w] += wk.shardWindows
	st.SpinNS[w] += wk.waits.waitNS - wk.waits.parkNS
	st.ParkNS[w] += wk.waits.parkNS
	if w == 0 {
		st.CoordParks += wk.waits.parks
	} else {
		st.Parks += wk.waits.parks
	}
}

// clock reads the host clock, in ns since the pool was built. A wide pool
// reads it a few times per window, never per event.
func (p *windowPool) clock() int64 { return int64(time.Since(p.start)) }

// worker returns worker w's common half: the coordinator is worker 0.
func (p *windowPool) worker(w int) *worker {
	if w == 0 {
		return &p.coord
	}
	return &p.helpers[w-1].worker
}

// helperLoop is a helper's life: wait for an epoch after seen, run the
// active shards it owns, say so, and tell the coordinator if that is parked.
func (p *windowPool) helperLoop(h *helper, seen uint64) {
	defer p.joined.Done()
	h.park.wake = make(chan struct{}, 1) // before the first park, which is what publishes it
	idle := p.clock()
	for {
		seen = await(&p.epoch, seen+1, p.spin, &h.park, &h.waits)
		if seen == retired {
			return
		}
		// The wait ended when the window was published; no clock read
		// between the epoch and the shards.
		h.waits.waitNS += max(0, p.published.Load()-idle)
		h.runOwn()
		h.done.Store(seen)
		if p.coordPark.unpark() {
			p.yield()
		}
		idle = p.clock()
	}
}

// yield is what a worker does between waking another and waiting for it: it
// gives up its P. The woken goroutine is queued behind the waker, on a P the
// waker is about to hold, and the only other way it gets to run is an idle OS
// thread waking up to steal it — 75us on the 2-vCPU host this was written on
// when that thread has only just gone to sleep, 1.7ms when its core has gone
// idle. Yielding lets the woken worker start now, and the waker — which had
// nothing to do but wait for it — is the one that takes the thread wake-up.
func (p *windowPool) yield() {
	if p.spin > 0 {
		runtime.Gosched()
	}
}

// activate hands shard s to its owner for the window ending at wend.
func (p *windowPool) activate(s *shard, wend int64) {
	s.own.wend, s.own.until = wend, min(wend, MaxIssueNS+1)
	p.assigned[s.node%p.width]++
	s.active.Store(true)
}

// runWindow executes the window activate has set up and returns when every
// activated shard has run: it publishes the window if a helper owns any of
// it, runs the coordinator's shards, and waits for those helpers. On a wide
// pool it also books the coordinator's time: the barrier phase since the last
// window ended, and the wait for the helpers.
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
	if p.width == 1 {
		p.coord.runOwn()
		p.assigned[0] = 0
		return
	}
	now := p.clock()
	p.stats.SerialNS += now - p.lastEnd
	woke := false
	if helping {
		p.stats.WideWindows++
		p.window++
		p.published.Store(now)
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
	if !helping {
		p.lastEnd = p.clock()
		return
	}
	if woke {
		p.yield()
	}
	waited := p.clock()
	for i := range p.helpers {
		if p.assigned[i+1] > 0 {
			await(&p.helpers[i].done, p.window, p.spin, &p.coordPark, &p.coord.waits)
			p.assigned[i+1] = 0
		}
	}
	p.lastEnd = p.clock()
	p.coord.waits.waitNS += p.lastEnd - waited
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

// close joins the helpers and closes the Run's telemetry into the engine. It
// runs on every way out of runWindowed, traps included.
func (p *windowPool) close() {
	p.join()
	p.fold(0, &p.coord)
	st := &p.stats
	st.Width, st.WallNS = p.widest, p.clock()
	st.ShardWindows, st.SpinNS, st.ParkNS = st.ShardWindows[:p.widest], st.SpinNS[:p.widest], st.ParkNS[:p.widest]
	p.e.winStats = *st
}

// WindowStats is the windowed executor's account of one Run: exact counts,
// taken per window and per shard-window, never per event, and host times
// read a few times per window on a wide pool.
type WindowStats struct {
	// Width is the most workers the Run executed on at once: the coordinator
	// plus the helpers the slot budget granted (for an auto Run, 1 unless it
	// went wide).
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
	// the last bucket is open-ended. These are what the workers ran, and what
	// auto width prices (widen, check).
	Events     uint64
	EventsLog2 [20]uint64
	// Parks counts the times a helper's spin budget ran out waiting for a
	// window, Wakes the wake-ups the coordinator issued to parked helpers (a
	// helper still parked when the Run ends is woken by close, uncounted),
	// and CoordParks the times the coordinator parked waiting for a helper.
	Parks      uint64
	Wakes      uint64
	CoordParks uint64
	// WideWindows is the number of windows published to helpers. WideAt is
	// the number of windows an auto Run (WithShards(0)) ran on one worker
	// before it first went wide — 0 if it never did, or its width was
	// explicit — Retires how often it gave its helpers back because going
	// wide stopped paying, and RetiredAt the window at which it last did.
	WideWindows uint64
	WideAt      uint64
	Retires     uint64
	RetiredAt   uint64
	// The barrier's time split, in host ns. WallNS is the windowed part of the
	// Run, from the pool's construction to its close. Once the pool is wide,
	// SerialNS is the coordinator's barrier phase (outbox delivery, the next
	// window's bounds, the stop guard) between the end of one window and the
	// start of the next, and SpinNS[w] and ParkNS[w] are worker w's time spent
	// waiting — for the helpers, for the coordinator's next window; for the
	// coordinator, for the helpers it gave work to — spinning and parked. A
	// pool that is one worker reads no clock per window and books none of
	// them.
	WallNS   int64
	SerialNS int64
	SpinNS   []int64
	ParkNS   []int64
	// MaxOutbox is the most cross-shard events one shard sent in one window:
	// the deepest outbox a barrier delivered.
	MaxOutbox int
	// HandoffAt is the virtual time at which the stop guard handed the Run to
	// the serial loop — the head of the window it did not run — and 0 if it
	// never did. SerialEvents is the number of events the serial loop
	// dispatched after a hand-off, by the stop guard or near the event budget
	// (or past MaxIssueNS).
	// Credited is the number of the Run's wait-loop blocks that parked threads
	// skipped (spin.go): they count in Engine.Events, but no executor
	// dispatched them. Events + SerialEvents + Credited is the Run's share of
	// Engine.Events.
	HandoffAt    int64
	SerialEvents uint64
	Credited     uint64
}

// WindowStats returns the telemetry of the engine's last windowed Run (the
// zero value if there was none).
func (e *Engine) WindowStats() WindowStats { return e.winStats }

// windowed reports whether a windowed Run is in progress: whether the shards
// run on timelines of their own.
func (e *Engine) windowed() bool { return e.shards[0].tl != &e.tl }

// runWindowed is Run's windowed driver. Concurrency is governed by
// the process-wide execution-slot budget (internal/slots): the Run caller
// owns one implicit slot, and each helper goroutine beyond it needs an
// extra slot, capped by the configured worker count — for an auto Run the
// slot budget's capacity or the CPU count, if lower — and the node count,
// which is what entitles a
// helper to spin: a slot is a P nobody else was promised. One worker, asked
// for, all the budget granted or all an auto Run's windows warrant, is the
// coordinator owning every shard. The window structure (and therefore every
// result) is identical at any width; only wall-clock time changes. It
// returns with every event dispatched, or at the barrier where the stop
// guard asked for the serial loop, where a few windows' worth of the event
// budget is left (nearBudget), or where the next window would pass MaxIssueNS,
// with the rest of them on the engine's timeline.
func (e *Engine) runWindowed() {
	limit := e.workers
	if e.auto {
		// Never wider than the workers can spin at: a pool wider than the
		// CPUs parks at every wait (windowPool.spin).
		limit = min(slots.Capacity(), runtime.NumCPU())
	}
	limit = min(limit, len(e.shards))

	if e.audit {
		e.curShard.Store(auditParallel)
		defer e.curShard.Store(auditIdle)
	}
	e.scatter()
	defer e.gather() // drained or handed off; the trap paths gather first

	pool := newWindowPool(e, limit, e.auto)
	defer pool.close()
	// Dispatched so far, as of the last barrier, and the most one window
	// dispatched: the serial loop takes over where the budget has no more
	// than a few windows' worth of room left (nearBudget).
	total, widest := e.tl.events, uint64(0)
	for {
		// Barrier: deliver cross-shard sends to their owning shards.
		for _, s := range e.shards {
			for _, ev := range s.outbox {
				e.shards[ev.dest()].own.q.push(ev)
			}
			pool.stats.MaxOutbox = max(pool.stats.MaxOutbox, len(s.outbox))
			s.outbox = s.outbox[:0]
		}
		// Global minimum head; done when every queue is empty.
		minHead, any := int64(0), false
		for _, s := range e.shards {
			if s.own.q.len() == 0 {
				continue
			}
			if h := s.own.q.min().at; !any || h < minHead {
				minHead, any = h, true
			}
		}
		if !any {
			return
		}
		// The serial loop also takes over where the next window would pass
		// MaxIssueNS, so the trap there (pastIssue) is at its clock too.
		if e.nearBudget(total, 4*widest) || minHead+e.lookahead > MaxIssueNS {
			return
		}
		if hook := e.onBarrier; hook != nil {
			hook()
		}
		if guard := e.stopGuard; guard != nil && guard(e.lookahead) {
			pool.stats.HandoffAt = minHead
			return
		}
		// The safe window: nothing can cross shards before minHead+lookahead.
		wend := minHead + e.lookahead
		for _, s := range e.shards {
			if s.own.q.len() > 0 && s.own.q.min().at < wend {
				pool.activate(s, wend)
			}
		}
		pool.runWindow()
		before := total
		total = e.tl.events
		for _, s := range e.shards {
			if s.trap != nil {
				e.gather()
				e.stopThreads()
				panic(s.trap)
			}
			total += s.own.events
		}
		widest = max(widest, total-before)
		pool.recordWindow(total - before)
		// An auto pool's periodic look: widen while it is one worker, check
		// once it is wide.
		if pool.stats.Windows >= pool.nextLook {
			if pool.width == 1 {
				pool.widen()
			} else {
				pool.check()
			}
		}
	}
}

// nearBudget reports whether the event budget has at most margin events of
// room left after total dispatched ones, and the Run must go on on the serial
// loop, which traps at the budget's (n+1)th dispatched event in the event
// order. Windows count as they go: one that dispatched more than the margin
// could take the count past the budget before a barrier sees it, and the
// serial loop then traps at once, at that count.
func (e *Engine) nearBudget(total, margin uint64) bool { return total+margin > e.maxEvents }

// scatter moves the engine's timeline onto the shards' own: each starts at
// the engine's clock with no events counted and the budget's room left as its
// own, and takes the pending events it owns.
func (e *Engine) scatter() {
	for _, s := range e.shards {
		o := &s.own
		o.now, o.events, o.credited, o.stale = e.tl.now, 0, 0, 0
		o.budget = e.maxEvents - e.tl.events
		s.tl = o
	}
	for _, th := range e.threads { // a thread's queued deadline reads are on its shard
		e.shards[th.node].own.stale += len(th.stales)
	}
	e.tl.stale = 0
	for e.tl.q.len() > 0 {
		ev := e.tl.q.pop()
		e.shards[ev.dest()].own.q.push(ev)
	}
}

// gather is scatter's inverse, at the end of a windowed Run or at the barrier
// where the stop guard, the event budget or MaxIssueNS hands it to the serial
// loop: every shard's pending events move back onto the engine's timeline,
// whose clock advances to the latest shard clock and whose counters take the
// shards', and the shards run on it again. Every pending event lies at or
// after the last window's end, and every shard clock before it, so nothing the
// serial loop runs next is behind the clock. A second gather changes nothing.
func (e *Engine) gather() {
	for _, s := range e.shards {
		o := &s.own
		for o.q.len() > 0 {
			e.tl.q.push(o.q.pop())
		}
		e.tl.now = max(e.tl.now, o.now)
		e.tl.events += o.events
		e.tl.credited += o.credited
		e.tl.stale += o.stale
		o.events, o.credited, o.stale = 0, 0, 0
		s.tl = &e.tl
	}
}
