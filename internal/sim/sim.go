// Package sim is a deterministic discrete-event simulation engine for the
// RDMA cluster.
//
// Simulated threads are pull coroutines (iter.Pull) running ordinary
// blocking Go code against the api.Ctx interface. Under the serial engine
// exactly one of them executes at a time: every memory operation takes effect
// when its completion event fires on the virtual clock, in strict (time,
// sequence) order, and a thread that needs an operation's result is suspended
// until then. Memory effects therefore apply in a single global order — the
// engine is sequentially consistent at event granularity, which is the memory
// model the paper's algorithms require once the prescribed fences are in
// place (§5.2).
//
// Layering (this file + shard.go): the engine is partitioned by node. Each
// node owns a shard — its NIC, its threads' wakeups and parked spinners, its
// region of memory, the torn-RMW book-keeping for words it homes — and
// all cross-node interaction is routed as events on the owning shard's
// timeline through the verb protocol (evArrive/evExec/evComplete below).
//
// A timeline is one event loop's state — pending-event queue, clock, event
// count, window end — and dispatch is the loop: pop, advance, count, then
// step, resume or run the protocol handler, until the window ends. Two
// executors share the event protocol, the timeline type and dispatch; they
// differ only in which timeline a shard runs on:
//
//   - serial (an engine built without WithShards): every shard runs on the
//     engine's timeline (e.tl), whose window never ends, drained by dispatch
//     on the caller's goroutine — Run is that loop, the engine's only
//     exported one, and processNextEvent (the tests' single step) is one turn
//     of it at any width: one event popped, and what its thread then runs in
//     place (a parked wait's skipped polls take no turn).
//   - windowed (WithShards(n), n >= 1 workers or 0 for auto width): the
//     conservative executor in shard.go. For the duration of a Run each shard
//     runs on a timeline of its own, which takes the shard's pending events,
//     and executes them inside the safe window [window start, min(shard
//     heads) + lookahead) on the pool worker that owns the shard, barriers,
//     repeats.
//     Lookahead is the minimum cross-node verb latency
//     (model.Params.RemoteWireNS), and every cross-shard event is sent at
//     least one lookahead ahead of the sender's clock, so no shard can
//     receive anything that lands inside the window it is executing —
//     results are bit-identical to serial. One worker is the coordinator
//     alone: no helper, no barrier wait, and a node's threads run through a
//     window without popping past any other node's events, which is what
//     the lookahead buys on one core. A stop guard (SetStopGuard) can hand a
//     Run back to the serial loop at a barrier. Either way the Run ends with
//     the shards back on the engine's timeline and every pending event on
//     it.
//
// Everything a thread does to the clock — read it, schedule on it, advance it
// in place — goes to the timeline its shard currently runs on, so no thread
// operation asks which executor is running.
//
// Determinism: given the same seed, workload and model, every run produces
// bit-identical schedules, throughputs and latencies under either executor.
// Ties on the virtual clock are broken by the event's own fields — its issue
// time, then its thread, then its kind (eventSeq) — so the order is a
// function of the event, never of the order in which events were pushed or
// of cross-shard execution interleaving. That is also what lets a parked
// wait skip its polls (spin.go): the place a skipped poll would have had
// among same-instant events is a function of its own times.
//
// Hot path: events live in a typed 4-ary min-heap (eventq.go) — no interface
// boxing, zero allocations per event in steady state, and a pop that leaves
// the root open for the popped event's own successor to fill — and there is
// one thread-switch primitive. The executor (dispatch, run by Run and
// processNextEvent or by shard.runWindow on the shard's worker) is always the
// resumer: it pops an event and, for a wake-up or completion, calls
// Thread.resume, which runs the thread's coroutine until Thread.suspend yields
// back. A coroutine switch is a direct goroutine-to-goroutine transfer inside
// the runtime — no channel, no scheduler pass — and still the dearest thing an
// event can do, so an event pays for one only when the thread's code has
// something to learn from it.
// Local operations (and the legs of a loopback verb, the three of a torn RCAS
// included) are posted: the call appends the operation to a small per-thread
// FIFO (Thread.post) and Write, Fence and Pause, which return nothing, return
// at once. The executor that pops the head operation's wake-up completes it —
// applies the store, reads the word — and starts the next one itself
// (Thread.step), exactly as the resumed thread would have: same event, same
// instant, same issue time and so the same key. The coroutine is resumed when
// the FIFO is empty, which is when a call that returns a value or the time,
// touches a NIC or the allocator, or burns Work has what it waited for
// (Thread.drain); `Write; Write; CAS` is three events and one resume, and
// api.Ctx.SpinWhile — the local poll loop ALock's waiters sit in — is one FIFO
// entry however many polls it takes, and parks the thread on its word between
// them, so that it costs events when the word changes, not per poll (spin.go);
// the event budget counts what is dispatched, so a parked wait spends none.
// So is api.Ctx.SpinUntil, the same loop and the same parked wait with the
// caller's predicate over the polled value and the deadline's verdict in place
// of the compare (the rw locks' descriptor, group-word and state-word waits):
// its thread parks on the value its last poll read.
// So is api.Ctx.WorkLoop, the loop that waits on Go state (`look; Work(d);
// look again`: the lock service's idle workers and arrival generators): when a
// turn's Work has elapsed, step calls the loop's function on the executor
// (Thread.tick) and re-arms the entry, and the coroutine runs again only when
// the function ends the loop. That function and SpinUntil's predicate are
// thread code that happens to run off the coroutine — bound to the thread's
// node, Go state only, its panic the thread's panic. post and step share
// tryAdvance, the test for whether an operation can advance the clock in place
// instead of scheduling. api.Ctx states the contract this puts on callers (Go
// state shared between threads is ordered by a completing call, never by a
// bare Write returning). The package's tests replay the processNextEvent loop
// against the standard-library heap as the bit-exact reference
// (reference_test.go), SpinWhile, SpinUntil and WorkLoop against the loops
// they are defined as (spin_test.go and FuzzSpinWhileMatchesLoop,
// spinuntil_test.go and FuzzSpinUntilMatchesLoop, workloop_test.go) and
// posted operations against the same programs with every operation completed
// before the next is issued, the torn loopback RCAS against its legs with the
// thread resumed after each (posted_test.go).
//
// Costs come from internal/model, and every remote operation is routed
// through the requester's and responder's internal/nic instances, which is
// where loopback congestion and QP thrashing arise. The responder NIC
// reserves service when the request arrives on its timeline (evArrive),
// not at issue time on the requester's — each NIC is touched only by its
// owning shard.
//
// Stop/horizon contract: threads observe Stopped() == true as soon as the
// virtual clock reaches the horizon Run arms (setHorizon), or immediately
// after RequestStop. A later Run may shorten or extend the horizon —
// extending it un-stops a run that had merely crossed the previous horizon —
// but an explicit RequestStop is sticky: once requested, no later horizon
// makes Stopped() return false again.
// Workload loops rely on this to wind down exactly once. Inside a window a
// RequestStop would be observed by other shards without a deterministic
// cross-shard order, so a caller that stops mid-run (the harness's TargetOps
// countdown) sets a stop guard: at every barrier the guard says whether a
// stop could land inside the next window, and the first "yes" hands the rest
// of the Run to the serial loop, where the stop lands in the global order. A
// RequestStop inside a window panics.
//
// Blocked forever: a Run (or processNextEvent) whose queues drain around a
// live thread ends with a panic. A thread parked in SpinWhile or SpinUntil
// then waits forever — nothing is left to store to its word — and the panic
// names it, the call and the word; that is a workload's bug, such as a lock
// handed to nobody.
// Any other live thread is "blocked forever", which only an engine that lost
// an event can cause.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/model"
	"alock/internal/nic"
	"alock/internal/ptr"
)

// Event kinds. evWake resumes a blocked thread; the rest are the cross-node
// verb protocol, each executing on the shard that owns the touched state.
const (
	evWake      uint8 = iota // resume th at `at` (block expiry, spawn)
	evArrive                 // th's verb request reaches the responder NIC
	evExec                   // th's verb occupies the responder and executes
	evTornWrite              // write half of th's torn remote CAS
	evComplete               // th's verb completion reaches the requester
)

// event is one scheduled occurrence on a shard's timeline.
//
// seq is the tie-breaker on the virtual clock: the event's issue time, thread
// and kind packed into one word (eventSeq), so that (at, seq) orders events by
// their own fields. It is unique among pending events because a thread has at
// most one pending event of each kind: one local operation's wake-up (its
// FIFO's head), one verb's protocol step or completion (a torn RCAS's write
// half is a kind of its own). The one exception is a parked wait's
// deadline read gone stale (spin.go), which pops to nothing; a live wake-up
// equal to it in every field is interchangeable with it.
type event struct {
	at   int64 // virtual time
	seq  uint64
	th   *Thread
	kind uint8
	dst  int16 // owning shard, frozen at schedule time (see destFor)
}

// dest returns the shard that owns the event. The value is computed once at
// schedule time: responder-side events derive it from the thread's verb,
// which the thread is free to re-arm the moment its completion resumes it —
// possibly before a pending evTornWrite pops, under the windowed executor.
func (ev event) dest() int { return int(ev.dst) }

// destFor computes an event's owning shard while the scheduling state is
// still live: thread wakeups and verb completions belong to the thread's
// node, responder-side verb events to the node homing the target word.
func destFor(kind uint8, t *Thread) int16 {
	switch kind {
	case evArrive, evExec, evTornWrite:
		return int16(t.verb.p.NodeID())
	default:
		return int16(t.node)
	}
}

// timeline is one event loop's state: the pending events, the clock, the
// events dispatched on it and the end of the window the loop may run to. The
// engine's timeline carries every node (its window never ends); during a
// windowed Run each shard runs on one of its own (shard.go). Everything that
// reads the clock, queues an event or advances in place does it on the
// timeline of the thread's shard, whichever that is.
//
// events counts what the loop dispatched (popped, or advanced in place), and
// credited the wait-loop blocks that parked threads skipped (spin.go): the two
// together are the loop's Events. The loop dispatches events before until —
// the window end or MaxIssueNS+1, whichever is first — while fewer than budget
// are dispatched: the event budget on the engine's timeline, what was left of
// it when the Run began on a shard's own. stale counts the queued deadline
// reads that pop to nothing.
type timeline struct {
	// What every dispatch and tryAdvance reads, first.
	q        eventQueue
	now      int64
	events   uint64
	until    int64
	budget   uint64
	stale    int
	wend     int64 // exclusive: the loop dispatches only events before it
	credited uint64
}

// curShard sentinels for the access auditor.
const (
	auditIdle     int32 = -1 // no run in progress: setup/teardown may touch anything
	auditParallel int32 = -2 // windowed run: per-shard active flags carry the check
)

// Engine is one simulated cluster run.
type Engine struct {
	space *mem.Space
	p     model.Params
	nics  []*nic.NIC
	seed  int64
	rngs  PartitionedRNG

	// tl is the engine's timeline: it holds every pending event except during
	// a windowed Run, which scatters its queue onto the shards' own timelines
	// at entry and gathers them back at exit. shards always exist: they own
	// seq issue and torn-RMW state under both executors.
	tl     timeline
	shards []*shard
	// workers is WithShards' executor width: 0 (unset) = the serial
	// executor, n >= 1 = the conservative windowed executor on n workers for
	// Run; auto (WithShards(0)) is the windowed executor on one worker that
	// goes as wide as the slot budget once the windows pay (widen). lookahead
	// is the windowed executor's safety margin: the minimum cross-node verb
	// latency, below which no shard can affect another.
	workers   int
	auto      bool
	lookahead int64
	// stopGuard, when set (SetStopGuard), is asked at every barrier of a
	// windowed Run whether a RequestStop could land inside a window of the
	// given length; the first true hands the Run to the serial loop.
	stopGuard func(window int64) bool

	// winStats is the telemetry of the last windowed Run, closed into the
	// engine when that Run's worker pool is (WindowStats).
	winStats WindowStats

	// The run is stopped once a timeline's clock reaches stopAt, or from an
	// explicit RequestStop on (stopRequested, sticky: a later setHorizon
	// cannot un-stop the run). RequestStop never runs inside a window, so
	// threads on parallel shards read it with the window barrier ordering
	// them after the write.
	stopAt        int64
	stopRequested bool

	threads []*Thread

	maxEvents uint64

	// audit is the access audit, on in every test binary and off in every
	// built one (New): curShard tracks which shard's timeline is executing
	// (serial executor) and the mem.Space hook panics on touches of another
	// shard's region; under the windowed executor the per-shard active flags
	// catch touches of idle shards and the race detector covers the rest.
	audit    bool
	curShard atomic.Int32

	// onWindowEvent, when non-nil, observes every event the windowed
	// executor dispatches, on the worker that owns the shard. Test hook (the
	// safe-window and ownership tests); nil in production.
	onWindowEvent func(s *shard, ev event)
	// onBarrier, when non-nil, runs on the coordinator at every barrier of a
	// windowed Run, before the window is handed out. Test hook (a coordinator
	// slower than the helpers' spin budget); nil in production.
	onBarrier func()
}

// Option configures a new Engine.
type Option func(*Engine)

// WithMaxEvents overrides the runaway-simulation guard (default 2^33): the
// number of events the executors may dispatch — pop, or advance in place —
// before the engine traps as a livelock. The polls a thread parked in
// SpinWhile or SpinUntil skips are credited to Events but spend none of it.
func WithMaxEvents(n uint64) Option {
	return func(e *Engine) { e.maxEvents = n }
}

// WithShards makes Run execute on the conservative windowed executor
// (shard.go) with that many workers — bit-identical to the serial executor
// of an engine built without the option, because no event crosses shards
// with less than one lookahead of slack. One worker is the Run caller alone,
// with no helper goroutine and no execution slot: windows still pay on one
// core, since a node's local events run without being ordered against every
// other node's. More workers run up to that many shards' windows
// concurrently. 0 is auto: each Run starts on one worker and, once its first
// windows carry enough events to pay for the barrier, takes as many helpers
// as the execution-slot budget (internal/slots) grants, up to its capacity
// or the CPU count, and gives them back if they stop paying.
// Worker counts above the node count or the budget are clamped at Run time;
// results never depend on the effective width. processNextEvent always
// advances serially, at any width.
func WithShards(workers int) Option {
	if workers < 0 {
		panic(fmt.Sprintf("sim: WithShards(%d): negative worker count", workers))
	}
	return func(e *Engine) { e.workers, e.auto = max(1, workers), workers == 0 }
}

// New creates an engine for a cluster of `nodes` nodes, each with
// wordsPerNode words of RDMA-accessible memory, under cost model p.
//
// In a test binary (testing.Testing) the engine runs the access audit: every
// mem.Space access is checked against the shard model, and a word touched
// from another shard's timeline outside the verb protocol, or a local
// operation on another node's word, panics at the access instead of silently
// racing. The serial executor enforces the check exactly (and any violation
// occurs at the same virtual point under either executor, so a serial run
// certifies the schedule for the windowed one); the windowed executor
// catches touches of idle shards and leaves concurrent-touch detection to
// the race detector. Built binaries never pay for it.
func New(nodes, wordsPerNode int, p model.Params, seed int64, opts ...Option) *Engine {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid model: %v", err))
	}
	e := &Engine{
		space:     mem.NewSpace(nodes, wordsPerNode),
		p:         p,
		nics:      make([]*nic.NIC, nodes),
		seed:      seed,
		rngs:      NewPartitionedRNG(seed),
		tl:        timeline{wend: math.MaxInt64, until: MaxIssueNS + 1},
		stopAt:    math.MaxInt64,
		maxEvents: 1 << 33,
		lookahead: p.RemoteWireNS,
		audit:     testing.Testing(),
	}
	e.shards = make([]*shard, nodes)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	for i := range e.nics {
		e.nics[i] = nic.New(i, p)
	}
	for _, o := range opts {
		o(e)
	}
	e.tl.budget = e.maxEvents
	e.curShard.Store(auditIdle)
	if e.audit {
		e.space.SetAudit(e.auditAccess)
	}
	return e
}

// auditAccess is the mem.Space hook New installs in test binaries.
func (e *Engine) auditAccess(node int) {
	switch cur := e.curShard.Load(); cur {
	case auditIdle:
		// Setup/teardown outside a run: unrestricted.
	case auditParallel:
		if !e.shards[node].active.Load() {
			panic(fmt.Sprintf(
				"sim: access audit: node %d memory touched while its shard is idle (out-of-protocol cross-shard access)", node))
		}
	default:
		if int32(node) != cur {
			panic(fmt.Sprintf(
				"sim: access audit: node %d memory touched from node %d's timeline (out-of-protocol cross-shard access)", node, cur))
		}
	}
}

// Space exposes the cluster memory for setup code (e.g. allocating a lock
// table before threads start). It must not be touched while Run is active.
func (e *Engine) Space() *mem.Space { return e.space }

// Model returns the engine's cost model.
func (e *Engine) Model() model.Params { return e.p }

// NIC returns node i's RNIC model (for stats inspection).
func (e *Engine) NIC(i int) *nic.NIC { return e.nics[i] }

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.tl.now }

// RequestStop makes Stopped() return true from this point on, regardless
// of the time horizon. It may be called from inside a simulated thread
// (e.g. by a measurement harness once it has collected enough operations).
// An explicit stop is sticky: no subsequent setHorizon re-arms the run.
// Inside a window other shards would observe the stop without a
// deterministic cross-shard order, so a thread that may stop a windowed Run
// needs a stop guard (SetStopGuard) that hands the Run to the serial loop
// first; a RequestStop inside a window panics — no guard, or one whose bound
// is unsound.
func (e *Engine) RequestStop() {
	if e.windowed() {
		panic("sim: RequestStop inside a window: the stop guard is missing or its bound is unsound")
	}
	e.stopRequested = true
}

// SetStopGuard installs the windowed executor's stop guard: at every barrier
// of a windowed Run, before a window of `window` ns is handed out, guard is
// asked whether a RequestStop could land inside it, and the first true hands
// the rest of the Run to the serial loop — the global order a mid-run stop
// needs. guard runs on the Run caller with no thread running; it must answer
// from state the threads leave behind at a barrier. Set it before Run.
func (e *Engine) SetStopGuard(guard func(window int64) bool) { e.stopGuard = guard }

// Stopped reports whether threads currently observe Stopped() == true —
// either the clock passed the horizon or RequestStop was called.
func (e *Engine) Stopped() bool { return e.stoppedAt(e.tl.now) }

// stoppedAt is the stop as a thread whose clock reads now observes it.
func (e *Engine) stoppedAt(now int64) bool { return e.stopRequested || now >= e.stopAt }

// Events returns the number of events processed so far: every block of a
// parked wait loop counts, skipped or not, once the poll that ends the skip
// has run.
func (e *Engine) Events() uint64 { return e.tl.events + e.tl.credited }

// Credited returns how many of Events() are wait-loop blocks that parked
// threads skipped (spin.go): counted, never dispatched. Like Events it is for
// use between Steps or after Run.
func (e *Engine) Credited() uint64 { return e.tl.credited }

// Resumes returns how many times the executor has switched into a simulated
// thread's coroutine so far: the events that cost a thread switch, out of
// Events(). Like Events it is for use between Steps or after Run.
func (e *Engine) Resumes() (n uint64) {
	for _, t := range e.threads {
		n += t.resumes
	}
	return n
}

// RNG exposes the engine's partitioned randomness so setup code can derive
// streams for its own subsystems without touching the thread streams.
func (e *Engine) RNG() PartitionedRNG { return e.rngs }

// Spawn registers a simulated thread on `node` running fn. All spawns must
// happen before Run. Threads are started at virtual time 0 in spawn order.
func (e *Engine) Spawn(node int, fn func(api.Ctx)) *Thread {
	if node < 0 || node >= e.space.Nodes() {
		panic(fmt.Sprintf("sim: Spawn on node %d of %d", node, e.space.Nodes()))
	}
	id := len(e.threads)
	if id >= maxThreads {
		panic(fmt.Sprintf("sim: Spawn of thread %d: at most %d threads", id, maxThreads))
	}
	t := &Thread{
		e:      e,
		shard:  e.shards[node],
		id:     id,
		node:   node,
		rng:    e.rngs.Stream(SubsystemThread, id),
		fabric: e.rngs.Stream(SubsystemFabric, id),
		fn:     fn,
	}
	t.next, t.stop = iter.Pull(t.run)
	e.threads = append(e.threads, t)
	s := t.shard
	s.nthreads++
	s.parked = append(make([]*Thread, 0, s.nthreads), s.parked...) // room for every thread to park
	e.scheduleEv(s, e.tl.now, evWake, t)                           // start at the current virtual time
	return t
}

// scheduleEv creates an event issued now on `from`'s timeline and queues it
// there when its destination shard runs on the same timeline — always,
// outside a windowed Run. A send to a shard on another timeline is deferred to
// the sender's outbox, which the barrier drains; the conservative contract that
// makes this safe — nothing may cross shards with less than one lookahead of
// slack — is asserted here.
func (e *Engine) scheduleEv(from *shard, at int64, kind uint8, t *Thread) {
	tl := from.tl
	if e.audit {
		checkSeq(tl.now, t.id, kind)
	}
	ev := event{at: at, seq: eventSeq(tl.now, t.id, kind), th: t, kind: kind, dst: destFor(kind, t)}
	dst := e.shards[ev.dest()]
	if dst.tl == tl {
		tl.q.push(ev)
		return
	}
	if at < tl.now+e.lookahead {
		panic(fmt.Sprintf(
			"sim: lookahead violation: shard %d sent a t=%dns event to shard %d at t=%dns (lookahead %dns)",
			from.node, at, dst.node, tl.now, e.lookahead))
	}
	from.outbox = append(from.outbox, ev)
}

// pending reports the number of events scheduled on the engine's timeline
// that will run (stale deadline reads left out).
func (e *Engine) pending() int { return e.tl.q.len() - e.tl.stale }

// dispatch is the event loop both executors run: while the earliest of tl's
// events lies before tl's window end, and for at most limit of them, it pops
// the event, advances tl's clock to it, counts it and processes it — a thread
// wake-up or verb completion steps the thread's posted operations and resumes
// the thread once they are done, a verb-protocol event executes inline. It
// returns the trap that makes the engine unusable — time going backwards, the
// event budget blown (a livelock in the simulated system), a clock past
// MaxIssueNS or the resumed thread's body panicking — for the caller to raise
// on the goroutine driving the Run.
//
// The loop is the shared unit, not one event's body: a coroutine switch leaves
// the CPU's return-address prediction in the thread's stack, so every return
// between a resume and the next pop mispredicts. A per-event function costs
// one such return per resume — about a fifth more host time per event on
// fail/timeout-recovery, whose threads are resumed often.
func (e *Engine) dispatch(tl *timeline, limit int) error {
	for n := 0; n < limit; n++ {
		if tl.q.len() == 0 || tl.q.min().at >= tl.until || tl.events >= tl.budget {
			tl.dropStale()
			if tl.events > tl.budget {
				return e.exceeded(tl) // a windowed Run's last windows took the count past it
			}
			if tl.q.len() == 0 || tl.q.min().at >= tl.wend {
				return nil
			}
			if tl.q.min().at > MaxIssueNS {
				return pastIssue(tl)
			}
			if tl.events == tl.budget {
				tl.now = max(tl.now, tl.q.pop().at)
				tl.events++
				return e.exceeded(tl)
			}
		}
		ev := tl.q.pop()
		if tl.stale != 0 && ev.kind == evWake && ev.th.takeStale(ev.at, ev.seq) {
			tl.stale-- // a deadline read whose wait a store ended: nothing ran
			n--
			continue
		}
		if ev.at < tl.now {
			return fmt.Errorf("sim: time went backwards (%dns after %dns)", ev.at, tl.now)
		}
		tl.now = ev.at
		tl.events++
		if e.audit || e.onWindowEvent != nil {
			e.observe(tl, ev)
		}
		if ev.kind == evWake || ev.kind == evComplete {
			if ev.th.nops != 0 && !ev.th.step() {
				continue // the thread's next local op is under way: it stays parked
			}
			if err := ev.th.resume(); err != nil {
				return err
			}
			continue
		}
		e.execProtocol(e.shards[ev.dest()], ev)
	}
	return nil
}

// exceeded is the event budget's trap on tl: the sign of a livelock in the
// simulated system.
func (e *Engine) exceeded(tl *timeline) error {
	return fmt.Errorf("sim: exceeded %d events at t=%dns — livelock?", e.maxEvents, tl.now)
}

// observe is dispatch's audit and test-hook bookkeeping. On the engine's
// timeline the access auditor checks every touch against the event's shard
// exactly; on a shard's own timeline the per-shard active flags carry that
// check, and the window hook sees the event.
func (e *Engine) observe(tl *timeline, ev event) {
	if tl == &e.tl {
		if e.audit {
			e.curShard.Store(int32(ev.dest()))
		}
		return
	}
	if hook := e.onWindowEvent; hook != nil {
		hook(e.shards[ev.dest()], ev)
	}
}

// stopThreads unwinds every unfinished thread: its pending suspend panics
// with threadStopped, which runs the body's defers and is swallowed by
// Thread.run. Every trap path calls it before panicking on the goroutine
// driving the engine, so no coroutine outlives a poisoned engine.
func (e *Engine) stopThreads() {
	for _, t := range e.threads {
		t.stop()
	}
}

// setHorizon (re)arms the measurement horizon: Stopped() returns true from
// the moment the virtual clock reaches stopAt. Run arms it with its stopAt
// argument; tests that drive processNextEvent arm it directly. Extending the
// horizon un-stops a run that had merely crossed the previous horizon, but
// never one that called RequestStop — an explicit stop is sticky.
func (e *Engine) setHorizon(stopAt int64) { e.stopAt = stopAt }

// execProtocol runs a verb-protocol event's handler. s is the event's
// destination shard, whose timeline ev.at lies on; every piece of state the
// handler touches (the responder NIC, its in-flight counters, its torn-RMW
// book, the target word) is owned by s.
func (e *Engine) execProtocol(s *shard, ev event) {
	t := ev.th
	v := &t.verb
	switch ev.kind {
	case evArrive:
		// The request reaches the responder: it starts occupying the
		// responder NIC now (not acausally at issue time), and service is
		// scheduled under the congestion the responder actually sees.
		s.remoteInFlight++
		qp := nic.QP{SrcNode: t.node, SrcThread: t.id, DstNode: s.node}
		rxDone := e.nics[s.node].Submit(ev.at, qp, false, s.remoteInFlight)
		e.scheduleEv(s, rxDone, evExec, t)
	case evExec:
		if v.op == verbCAS && e.p.TornRCAS {
			if !s.holdTorn(v.p) {
				// The responder serializes remote atomics: another remote
				// RMW holds the word mid-tear, so this one re-polls.
				e.scheduleEv(s, ev.at+e.p.SpinPollMinNS, evExec, t)
				return
			}
			v.result = *e.space.WordAddr(v.p) // read half
			// Snapshot the write half: by the time it executes, the
			// requester may have resumed (completion below) and re-armed
			// t.verb for its next operation.
			t.torn = tornWrite{p: v.p, old: v.old, val: v.val, read: v.result}
			e.scheduleEv(s, ev.at+e.p.TornGapNS, evTornWrite, t)
			done := ev.at + v.wire
			if gapDone := ev.at + e.p.TornGapNS; gapDone > done {
				done = gapDone
			}
			e.scheduleEv(s, done, evComplete, t)
			return
		}
		addr := e.space.WordAddr(v.p)
		switch v.op {
		case verbRead:
			v.result = *addr
		case verbWrite:
			*addr = v.val
			if len(s.parked) != 0 {
				s.stored(v.p, v.val, ev.at, ev.seq)
			}
		case verbCAS:
			prev := *addr
			if prev == v.old {
				*addr = v.val
				if len(s.parked) != 0 {
					s.stored(v.p, v.val, ev.at, ev.seq)
				}
			}
			v.result = prev
		}
		s.remoteInFlight--
		e.scheduleEv(s, ev.at+v.wire, evComplete, t)
	case evTornWrite:
		// Write half: blind from local memory's perspective (Table 1).
		// Uses the read-half snapshot, not t.verb — see evExec above.
		tw := t.torn
		if tw.read == tw.old {
			*e.space.WordAddr(tw.p) = tw.val
			if len(s.parked) != 0 {
				s.stored(tw.p, tw.val, ev.at, ev.seq)
			}
		}
		s.releaseTorn(tw.p)
		s.remoteInFlight--
	}
}

// processNextEvent pops the earliest pending event, advances the virtual
// clock to it, and processes it on the calling goroutine (one turn of dispatch
// on the engine's timeline). It reports whether an event was processed (false means
// the queue is empty). Panics on time regression, when the event budget is
// exceeded, when the resumed thread's body panicked, or when the event leaves
// the queue drained around a parked wait (waitsForever), after every
// thread has been unwound; the engine is unusable afterwards.
func (e *Engine) processNextEvent() bool {
	if e.pending() == 0 {
		return false
	}
	if e.audit {
		// A driver may inspect memory between steps, as after a Run.
		defer e.curShard.Store(auditIdle)
	}
	err := e.dispatch(&e.tl, 1)
	if err == nil && e.pending() == 0 {
		err = e.waitsForever()
	}
	if err != nil {
		e.stopThreads()
		panic(err)
	}
	return true
}

// Run drives the simulation until every thread has exited. Threads observe
// Stopped() == true once the virtual clock reaches stopAt and are expected
// to wind down (finishing in-flight critical sections so queues drain).
//
// The serial executor is dispatch on the engine's timeline, nothing more
// (processNextEvent is one turn of it); WithShards engages the conservative
// windowed executor in shard.go, which returns with every event dispatched —
// or, when its stop guard says a stop could land in the next window, with the
// rest of them back on the engine's timeline for the serial loop to finish.
// Semantics are identical in every mode: event order, the events counter and
// all memory effects come from the same total order. A dispatch failure (time
// regression, event-budget livelock, a clock past MaxIssueNS) or a panic in a
// thread's body panics on the caller's goroutine in all modes, after every
// other thread has been unwound; the engine is unusable afterwards.
//
// The closing checks run once the queues have drained. A thread parked in
// SpinWhile or SpinUntil then waits forever — nothing is left to store to its
// word — and the Run panics naming it (waitsForever). Any other live thread is
// "blocked forever", which is an internal invariant of the engine, not a
// workload-reachable outcome: every other api.Ctx call that suspends a thread
// has its wake-up or completion already scheduled, so the queues cannot drain
// around such a thread unless the engine lost an event.
func (e *Engine) Run(stopAt int64) {
	e.setHorizon(stopAt)
	if e.audit {
		// Post-run inspection (fingerprints, stats readers) is setup/teardown
		// as far as the auditor is concerned.
		defer e.curShard.Store(auditIdle)
	}
	windowed := e.workers > 0 && e.pending() > 0
	start, credited := e.tl.events, e.tl.credited
	if windowed {
		e.runWindowed()
	}
	err := e.dispatch(&e.tl, math.MaxInt)
	if err == nil {
		err = e.waitsForever()
	}
	if err != nil {
		e.stopThreads()
		panic(err)
	}
	if windowed {
		e.winStats.Credited = e.tl.credited - credited
		e.winStats.SerialEvents = e.tl.events - start - e.winStats.Events
	}
	for _, t := range e.threads {
		if !t.exited {
			e.stopThreads()
			panic(fmt.Sprintf("sim: thread %d blocked forever (deadlock)", t.id))
		}
	}
}

// Remote verb operations, stored on the Thread while in flight (one
// outstanding verb per thread; no allocation).
const (
	verbRead uint8 = iota
	verbWrite
	verbCAS
)

// verbState is the in-flight remote verb: target, operation, this verb's
// wire latency (jitter included — the completion leg reuses it), and the
// slot the responder-side handlers fill for the requester to read back.
type verbState struct {
	p        ptr.Ptr
	op       uint8
	old, val uint64
	wire     int64
	result   uint64
}

// Thread is one simulated thread; it implements api.Ctx.
type Thread struct {
	e     *Engine
	shard *shard // the thread's node's shard: its timeline authority
	id    int
	node  int
	// head, nops and ops (below) are the FIFO of the thread's issued local
	// operations: nops of them have been posted since it was last empty, and
	// ops[head] is the one whose latency is elapsing (its evWake is
	// scheduled). The thread appends (post); the executor that pops each evWake
	// completes the head and starts the next (step), and resumes the coroutine
	// only once the FIFO is empty. The two never interleave — the thread runs
	// only while the executor does not, and one that waits on its FIFO waits
	// for all of it — so the FIFO fills from slot 0 and never wraps. result is
	// what the last Read, CAS or SpinWhile to complete returns to its caller.
	// (The cursors share the struct's first cache line with what every event
	// reads anyway. Under the windowed executor a shard's threads are run by
	// one worker for the whole Run, so the line stays where it is.)
	head, nops int
	result     uint64
	// resumes counts coroutine switches into the thread (Engine.Resumes; tests
	// assert that what the executor completes costs none).
	resumes uint64
	// The thread's coroutine (iter.Pull over run): next switches to the
	// body until it calls yield or returns, stop unwinds a body that has not
	// finished. Only the executor calls next, only stopThreads calls stop.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	exited bool
	err    error // the body's panic, for the executor to raise on the driver
	ops    [8]localOp
	// rng is the thread's workload stream (api.Ctx.Rand); fabric feeds the
	// wire-jitter failure injection. Separate PartitionedRNG streams, so
	// algorithm-side draws never shift the fabric's failure schedule.
	rng    *rand.Rand
	fabric *rand.Rand
	fn     func(api.Ctx)
	verb   verbState
	// torn is the pending write half of the thread's torn cross-node RCAS,
	// snapshotted at read-half time by the responder's shard, which is also the
	// one that reads it back (evTornWrite): the requester may resume — its
	// completion is up to one lookahead ahead of the write half, so in a
	// parallel window the resume can run first on its own shard — and re-arm
	// verb before the write half executes. A thread has one verb in flight, and
	// its next evExec, on whatever shard, comes at least one wire — one
	// lookahead — after this write half (completion >= write half; issue, TX and
	// the request's wire follow the completion), so the two shards' accesses
	// are always separated by a window barrier.
	torn tornWrite
	// loop is the function of the thread's WorkLoop call (the FIFO's opLoop
	// entry runs it, see tick), and spinIter the iter the thread's last
	// SpinWhile or SpinUntil loop ended with; loopPanic is what WorkLoop's
	// function or SpinUntil's done panicked with, for the call to raise from
	// the thread's body.
	loop      func(now int64, stopped bool) (time.Duration, bool)
	spinIter  int64
	loopPanic any
	// spin is the thread's parked wait, and stales its deadline reads still
	// queued after a store ended their waits (spin.go).
	spin   spinWait
	stales []wakeID
}

// Local operation kinds: what step does when a FIFO entry's latency has
// elapsed.
const (
	opWait      uint8 = iota // nothing: Fence, Pause, Work
	opWrite                  // store val to p
	opRead                   // result = the word at p
	opCAS                    // result = the word at p, which becomes val if it was old
	opSpin                   // a SpinWhile or SpinUntil loop: its poll's read, see step
	opLoop                   // one Work of a WorkLoop loop, see tick
	opTornRead               // a torn loopback RCAS reaches the word: its read half, see step
	opTornWrite              // the write half, TornGapNS later
	opLoopDone               // a loopback verb's completion: retire its NIC occupancy
)

// localOp is one entry of a thread's FIFO: an operation on the thread's own
// node that costs d of virtual time from the moment the entry before it
// completed (or from its issue, on an empty FIFO) and takes effect when that
// has elapsed. An opSpin entry holds the wait loop's registers: iter is the
// back-off of its next Pause, deadline its deadline, done SpinUntil's
// predicate (nil for SpinWhile, whose test is the compare with old), and old
// the value the thread is parked on between polls (Thread.spin) — SpinWhile's
// value waited out, the value SpinUntil's last poll read. A torn loopback RCAS
// is one entry that moves through opTornRead, opTornWrite and opLoopDone,
// deadline holding the verb's completion time.
type localOp struct {
	kind     uint8
	iter     int64
	p        ptr.Ptr
	old, val uint64
	d        int64
	deadline int64
	done     func(v uint64, expired bool) bool
}

var _ api.Ctx = (*Thread)(nil)

// threadStopped is what suspend panics with once stopThreads has stopped
// the thread: it unwinds the body (running its defers) and run swallows it.
type threadStopped struct{}

// run is the coroutine body: the first resume enters it, and it returns —
// ending the coroutine — when the thread's function does. A panic in the
// function (workload bug, audit violation) is recorded for the executor,
// which re-raises it on the goroutine driving the engine.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil, threadStopped:
		default:
			t.err = fmt.Errorf("sim: thread %d panicked: %v\n%s", t.id, r, debug.Stack())
		}
	}()
	t.fn(t)
	t.drain() // what the body left posted still lands, at its instants
	t.exited = true
}

// resume runs the thread on the calling goroutine's time until it suspends
// again or exits, and returns the body's panic, if it raised one. dispatch —
// on the Run caller, or on the worker that owns the thread's shard — is the
// only caller, and for a thread with local ops posted it calls step first and
// resume only once that emptied the FIFO. (Small enough to inline into
// dispatch; keep it so.)
func (t *Thread) resume() error {
	t.resumes++
	t.next()
	return t.err
}

// suspend hands control back to the executor until a wake-up or completion
// event resumes the thread. It schedules nothing itself: callers have the
// event that ends the wait queued already.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(threadStopped{})
	}
}

// now is the thread's view of the virtual clock: the clock of the timeline
// its shard runs on.
func (t *Thread) now() int64 { return t.shard.tl.now }

// post issues a local operation: it appends op to the thread's FIFO (waiting
// for the FIFO to drain first if it is full) and returns. An op that is alone
// in the FIFO starts now — through tryAdvance, so it may also complete now;
// one behind others is started by step when its predecessor completes. The
// thread's code runs on either way: between two api.Ctx calls a thread can
// schedule nothing, so whether it or the executor starts the next op, the same
// event is issued at the same instant and takes the same key.
func (t *Thread) post(op localOp) {
	if t.nops == len(t.ops) {
		t.drain()
	}
	t.ops[t.nops] = op
	t.nops++
	if t.nops == 1 && t.tryAdvance(t.now()+op.d) {
		t.step()
	}
}

// drain returns once every posted operation has completed. Every api.Ctx call
// that returns a value or the time, touches a NIC or the allocator, or burns
// Work comes through here, and so does thread exit.
func (t *Thread) drain() {
	if t.nops != 0 {
		t.suspend() // step's caller resumes the thread when the FIFO is empty
	}
}

// step runs the thread's FIFO from the moment its head's latency has elapsed:
// it completes the head, starts the entry behind it and carries on for as long
// as tryAdvance moves the clock in place. It reports true when the FIFO is
// empty — the executor then resumes the coroutine — and false when it has
// scheduled the evWake of the entry now at the head. It runs on whichever side
// of the thread switch got there: the coroutine for an op that completes at
// issue, dispatch when it pops the thread's evWake.
//
// A SpinWhile or SpinUntil entry is the loop in spin.go's comment: its first
// poll's read is a block like any other, and a poll that fails parks the
// thread on the word (park) until a store's wake or the deadline's brings the
// read of a later poll — step credits the blocks skipped before it (wake) and
// reads the word again. A WorkLoop entry stays at the head, one Work of its
// loop after another, until its function ends the loop (tick).
//
// A torn loopback RCAS is one entry, three legs, each a wait the thread used
// to be resumed from: to the verb's execution, where the read half finds the
// word free of other remote RMWs (or looks again SpinPollMinNS on), marks it
// held and reads it; TornGapNS on to the write half, which stores if the read
// half matched and frees the word — local operations land in between, Table 1;
// and to the verb's completion, or no time at all if contention pushed the
// write half past it. The delay of each leg is set when the one before it
// lands, so starting an entry stays `now + d` for every kind.
//
// Every block of every kind goes through tryAdvance exactly as it would with
// the thread resumed in between — or, skipped by a parked wait, is credited —
// so the events counted and their keys are those of that program.
func (t *Thread) step() bool {
	e := t.e
	for {
		op := &t.ops[t.head]
		more := false // the entry stays at the head: it has another block or leg to run
		switch op.kind {
		case opWrite:
			*e.space.WordAddr(op.p) = op.val
			// A wait parked on the word may see the store: its block's key is
			// the one it was issued with, op.d before it ended.
			if len(t.shard.parked) != 0 {
				t.shard.stored(op.p, op.val, t.now(), eventSeq(t.now()-op.d, t.id, evWake))
			}
		case opRead:
			t.result = *e.space.WordAddr(op.p)
		case opCAS:
			// A local CAS deliberately ignores any in-flight torn remote RMW on
			// the same word: local RMW is not atomic with remote RMW (Table 1),
			// and modeling that is the point.
			addr := e.space.WordAddr(op.p)
			t.result = *addr
			if t.result == op.old {
				*addr = op.val
				if len(t.shard.parked) != 0 {
					t.shard.stored(op.p, op.val, t.now(), eventSeq(t.now()-op.d, t.id, evWake))
				}
			}
		case opSpin:
			t.wake(op)
			if t.result = *e.space.WordAddr(op.p); !t.spinOver(op) {
				op.old = t.result
				t.park(op) // a failed poll: the thread waits on the word
				return false
			}
			if t.spin.parked {
				t.unpark()
			}
			t.spinIter = op.iter
		case opLoop:
			if d := t.tick(); d > 0 { // the loop goes on: its next Work
				op.d, more = d, true
			}
		case opTornRead:
			if t.shard.holdTorn(op.p) {
				t.result = *e.space.WordAddr(op.p)
				op.kind, op.d, more = opTornWrite, e.p.TornGapNS, true
			} else { // another remote RMW holds the word mid-tear: look again
				op.d, more = e.p.SpinPollMinNS, true
			}
		case opTornWrite:
			// Blind from local memory's perspective: whatever a local Write or
			// CAS stored since the read half is overwritten.
			if t.result == op.old {
				*e.space.WordAddr(op.p) = op.val
				if len(t.shard.parked) != 0 {
					t.shard.stored(op.p, op.val, t.now(), eventSeq(t.now()-op.d, t.id, evWake))
				}
			}
			t.shard.releaseTorn(op.p)
			op.kind, op.d, more = opLoopDone, max(op.deadline-t.now(), 0), true
		case opLoopDone:
			t.shard.loopInFlight--
		}
		if !more {
			if t.head++; t.head == t.nops {
				t.head, t.nops = 0, 0
				return true
			}
			op = &t.ops[t.head]
		}
		if !t.tryAdvance(t.now() + op.d) {
			return false
		}
	}
}

// tryAdvance moves the thread to virtual time `at` (clamped to the clock). It
// reports true when the move is complete: `at` lies inside the window of the
// timeline the thread's shard runs on and no event on that timeline could
// observably run before it — under the windowed executor no other shard can
// affect this one inside the window, by the lookahead contract — so the clock
// advanced in place. Otherwise it has scheduled the thread's evWake at `at`
// and reports false: the caller carries on with the thread's code (post, on
// the coroutine) or returns to the event loop (step, on the executor).
// Exactly one event is counted either way, so the events counter is
// mode-independent; once the budget is spent, or for an event past
// MaxIssueNS, it always takes the scheduled path, where dispatch traps.
func (t *Thread) tryAdvance(at int64) bool {
	tl := t.shard.tl
	if at < tl.now {
		at = tl.now
	}
	if tl.stale != 0 {
		tl.dropStale()
	}
	if at < tl.until && (tl.q.len() == 0 || tl.q.min().at > at) && tl.events < tl.budget {
		tl.now = at
		tl.events++
		return true
	}
	t.e.scheduleEv(t.shard, at, evWake, t)
	return false
}

// NodeID implements api.Ctx.
func (t *Thread) NodeID() int { return t.node }

// ThreadID implements api.Ctx.
func (t *Thread) ThreadID() int { return t.id }

// Now implements api.Ctx.
func (t *Thread) Now() int64 {
	t.drain()
	return t.now()
}

// Stopped implements api.Ctx.
func (t *Thread) Stopped() bool {
	t.drain()
	return t.stopped()
}

// stopped is the thread's view of the stop: an explicit request or the clock
// of its shard's timeline reaching the horizon.
func (t *Thread) stopped() bool { return t.e.stoppedAt(t.now()) }

// Rand implements api.Ctx.
func (t *Thread) Rand() *rand.Rand { return t.rng }

// Alloc implements api.Ctx: allocation lands on the thread's own node.
func (t *Thread) Alloc(words, align int) ptr.Ptr {
	t.drain() // the allocator is shared: allocations keep their event order
	return t.e.space.Alloc(t.node, words, align)
}

// Free implements api.Ctx.
func (t *Thread) Free(p ptr.Ptr) {
	t.drain()
	t.e.space.Free(p)
}

// auditLocal rejects shared-memory operations on another node's words under
// the access audit (test binaries): a thread's local loads and stores reach
// only its own node's region; everything else must go through verbs. (This
// is the exact per-access check; it holds in every mode, including windowed.)
func (t *Thread) auditLocal(p ptr.Ptr) {
	if t.e.audit && p.NodeID() != t.node {
		panic(fmt.Sprintf(
			"sim: access audit: thread %d on node %d used a local operation on node %d's memory",
			t.id, t.node, p.NodeID()))
	}
}

// --- Local (shared-memory) operations ---
//
// Write, Fence and Pause return once posted; Read, CAS, SpinWhile,
// SpinUntil, Work and WorkLoop post and wait, so a run of them costs one
// resume, not one each.

// Read implements api.Ctx.
func (t *Thread) Read(p ptr.Ptr) uint64 {
	t.auditLocal(p)
	t.post(localOp{kind: opRead, p: p, d: t.e.p.LocalReadNS})
	t.drain()
	return t.result
}

// Write implements api.Ctx.
func (t *Thread) Write(p ptr.Ptr, v uint64) {
	t.auditLocal(p)
	t.post(localOp{kind: opWrite, p: p, val: v, d: t.e.p.LocalWriteNS})
}

// CAS implements api.Ctx.
func (t *Thread) CAS(p ptr.Ptr, old, new uint64) uint64 {
	t.auditLocal(p)
	t.post(localOp{kind: opCAS, p: p, old: old, val: new, d: t.e.p.LocalCASNS})
	t.drain()
	return t.result
}

// Fence implements api.Ctx. The engine is sequentially consistent at event
// granularity, so the fence only costs time.
func (t *Thread) Fence() {
	t.post(localOp{d: t.e.p.FenceNS})
}

// spinBackoff is Pause's delay after iter failed polls: SpinPollMinNS
// doubled per failed poll, capped at SpinPollMaxNS.
func (e *Engine) spinBackoff(iter int) int64 {
	d := e.p.SpinPollMinNS
	for i := 0; i < iter && d < e.p.SpinPollMaxNS; i++ {
		d <<= 1
	}
	if d > e.p.SpinPollMaxNS {
		d = e.p.SpinPollMaxNS
	}
	return d
}

// Pause implements api.Ctx: bounded exponential spin back-off.
func (t *Thread) Pause(iter int) {
	t.post(localOp{d: t.e.spinBackoff(iter)})
}

// SpinWhile implements api.Ctx: the loop in spin.go's comment, as one FIFO
// entry that parks the thread on the word between polls — a wait costs events
// when the word changes, not per poll — switching to the coroutine only when
// the wait is over.
func (t *Thread) SpinWhile(p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	t.auditLocal(p)
	t.post(localOp{kind: opSpin, p: p, old: v, d: t.e.p.LocalReadNS, deadline: deadlineNS})
	t.drain()
	return t.result
}

// SpinUntil implements api.Ctx: SpinWhile's entry with done as the test.
// Whoever finds a poll's read elapsed asks done — the coroutine for one that
// advances the clock in place, the executor when it pops the read's evWake —
// and a poll done fails parks the thread on the value it read.
func (t *Thread) SpinUntil(p ptr.Ptr, iter int, deadlineNS int64, done func(v uint64, expired bool) bool) (uint64, int) {
	t.auditLocal(p)
	t.post(localOp{kind: opSpin, p: p, iter: int64(iter), d: t.e.p.LocalReadNS, deadline: deadlineNS, done: done})
	t.drain()
	t.raise("SpinUntil")
	return t.result, int(t.spinIter)
}

// spinOver reports whether the poll of op that read t.result ends the loop:
// SpinWhile's compare, or SpinUntil's done with the deadline's verdict at the
// poll's read.
func (t *Thread) spinOver(op *localOp) bool {
	expired := op.deadline > 0 && t.now() >= op.deadline
	if op.done == nil {
		return t.result != op.old || expired
	}
	return t.askDone(op.done, expired)
}

// askDone asks SpinUntil's done about the value a poll read. done is thread
// code, and its panic must unwind the thread's body, not the executor: like
// tick, askDone ends the loop and leaves the value for SpinUntil to raise on the
// coroutine.
func (t *Thread) askDone(done func(v uint64, expired bool) bool, expired bool) (over bool) {
	defer t.trapLoop()
	over = true
	return done(t.result, expired)
}

// Work implements api.Ctx. It returns when the time has been burnt: callers
// bracket it with Go-side bookkeeping (a critical section's entry and exit)
// that other threads read.
func (t *Thread) Work(d time.Duration) {
	if d > 0 {
		t.post(localOp{d: d.Nanoseconds()})
	}
	t.drain()
}

// WorkLoop implements api.Ctx: the loop
//
//	for {
//		d, again := f(Now(), Stopped())
//		if !again { return }
//		Work(d)
//	}
//
// as one FIFO entry that stays at the head, one Work after another, until f
// ends the loop. Whoever finds a Work elapsed calls f for the next — the
// coroutine for one that advances the clock in place, the executor when it
// pops the Work's evWake — so the thread is switched to once, when the loop is
// over, however many turns it took.
func (t *Thread) WorkLoop(f func(now int64, stopped bool) (time.Duration, bool)) {
	t.drain() // Now() and Stopped() complete what is posted
	t.loop = f
	if d := t.tick(); d > 0 {
		t.post(localOp{kind: opLoop, d: d})
		t.drain()
	}
	t.raise("WorkLoop")
}

// raise re-panics, on the coroutine, what the function handed to the named
// call panicked with wherever the engine happened to run it.
func (t *Thread) raise(call string) {
	if t.loopPanic != nil {
		panic(fmt.Sprintf("%v (in the function passed to %s)", t.loopPanic, call))
	}
}

// tick runs the WorkLoop loop from the top of a turn to its next Work that
// takes time, and returns that Work's length: 0 means f ended the loop (a
// Work(0) schedules nothing, so f is simply called again). f is thread code,
// and its panic must unwind the thread's body, not the executor: tick ends the
// loop and leaves the value for WorkLoop to raise on the coroutine.
func (t *Thread) tick() int64 {
	defer t.trapLoop()
	for {
		d, again := t.loop(t.now(), t.stopped())
		if !again {
			return 0
		}
		if d > 0 {
			return d.Nanoseconds()
		}
	}
}

// trapLoop is tick's and askDone's deferred recover: a method, not a
// closure, so that the executor's path through them stays provably
// allocation-free.
func (t *Thread) trapLoop() {
	if r := recover(); r != nil {
		t.loopPanic = r
	}
}

// --- Remote (RDMA one-sided) operations ---

// verbWire draws one verb's cross-node wire latency: the base plus any
// transient fabric delay spike from the thread's deterministic fabric
// stream. Loopback verbs draw too (keeping each thread's fabric stream
// aligned across locality mixes) but use the PCIe wire instead.
func (t *Thread) verbWire() int64 {
	wire := t.e.p.RemoteWireNS
	if t.e.p.JitterProb > 0 && t.fabric.Float64() < t.e.p.JitterProb {
		wire += t.e.p.JitterNS
	}
	return wire
}

// loopVerbTimes routes a loopback verb (§1: the thread reaches its own
// node's memory through its own RNIC): both verb halves occupy the own
// NIC, the only wire is PCIe, and both halves count as PCIe-hungry
// loopback traffic for the congestion model. Everything it touches is
// own-shard state, so the loopback path stays on the thread's own timeline in
// every mode. The caller retires loopInFlight when the verb completes. Like
// remoteVerb it reserves NIC service at the issue instant, so both first wait
// for the thread's posted local ops.
func (t *Thread) loopVerbTimes(p ptr.Ptr) (execAt, doneAt int64) {
	e := t.e
	t.drain()
	t.verbWire() // consume the fabric draw; loopback rides PCIe regardless
	qp := nic.QP{SrcNode: t.node, SrcThread: t.id, DstNode: t.node}
	wire := e.p.LoopbackWireNS
	t.shard.loopInFlight++
	txDone := e.nics[t.node].Submit(t.now(), qp, true, t.shard.loopInFlight)
	arrive := txDone + wire
	rxDone := e.nics[t.node].Submit(arrive, qp, true, t.shard.loopInFlight)
	return rxDone, rxDone + wire
}

// remoteVerb issues one cross-node verb and blocks until its completion
// comes back: TX on the requester NIC now, the request arrives at the
// responder one wire later (evArrive on the owning shard), service and
// execution happen on the responder's timeline (evExec), and the
// completion crosses back (evComplete) — at which point the requester's
// side of the congestion accounting retires. The arrival and completion
// legs each cross shards with at least one wire (>= lookahead) of slack,
// which is exactly what lets the windowed executor run shards in parallel.
func (t *Thread) remoteVerb(p ptr.Ptr, op uint8, old, val uint64) uint64 {
	e := t.e
	t.drain()
	wire := t.verbWire()
	t.shard.remoteInFlight++
	qp := nic.QP{SrcNode: t.node, SrcThread: t.id, DstNode: p.NodeID()}
	txDone := e.nics[t.node].Submit(t.now(), qp, false, t.shard.remoteInFlight)
	t.verb = verbState{p: p, op: op, old: old, val: val, wire: wire}
	e.scheduleEv(t.shard, txDone+wire, evArrive, t)
	t.suspend() // until evComplete, already threaded through the verb protocol
	t.shard.remoteInFlight--
	return t.verb.result
}

// loopVerb runs an untorn loopback verb as two FIFO entries — op takes effect
// when the verb executes, the completion retires it one PCIe hop later — so
// the executor carries it from one to the other and the thread resumes once.
func (t *Thread) loopVerb(op localOp) uint64 {
	execAt, doneAt := t.loopVerbTimes(op.p)
	op.d = execAt - t.now()
	t.post(op)
	t.post(localOp{kind: opLoopDone, d: doneAt - execAt})
	t.drain()
	return t.result
}

// RRead implements api.Ctx.
func (t *Thread) RRead(p ptr.Ptr) uint64 {
	if p.NodeID() == t.node {
		return t.loopVerb(localOp{kind: opRead, p: p})
	}
	return t.remoteVerb(p, verbRead, 0, 0)
}

// RWrite implements api.Ctx.
func (t *Thread) RWrite(p ptr.Ptr, v uint64) {
	if p.NodeID() == t.node {
		t.loopVerb(localOp{kind: opWrite, p: p, val: v})
		return
	}
	t.remoteVerb(p, verbWrite, 0, v)
}

// RCAS implements api.Ctx.
//
// Without tearing, the compare-and-swap executes atomically at the
// responder. With tearing enabled (model.TornRCAS), the read half executes
// first and the write half TornGapNS later; other remote RMWs on the word
// stall in between (the responder NIC serializes remote atomics), but
// local operations slide right into the window — reproducing Table 1's
// "remote CAS is not atomic with local Write/RMW". The cross-node torn
// path lives in execProtocol on the word's owning shard; the loopback path
// mirrors it on the thread's own shard as one FIFO entry the executor takes
// through its three legs (step), so the thread resumes once, with the result.
func (t *Thread) RCAS(p ptr.Ptr, old, new uint64) uint64 {
	if p.NodeID() != t.node {
		return t.remoteVerb(p, verbCAS, old, new)
	}
	if !t.e.p.TornRCAS {
		return t.loopVerb(localOp{kind: opCAS, p: p, old: old, val: new})
	}
	execAt, doneAt := t.loopVerbTimes(p)
	t.post(localOp{kind: opTornRead, p: p, old: old, val: new, d: execAt - t.now(), deadline: doneAt})
	t.drain()
	return t.result
}
