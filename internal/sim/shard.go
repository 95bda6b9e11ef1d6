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
// returns with every shard queue empty, so outside a windowed Run all
// pending events are on the global queue (where Step and the serial Run
// pop them).
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
//	execute:  each shard pops (at, seq) order while head < wend, on up to
//	          `workers` goroutines (slots permitting); cross-shard sends
//	          buffer in the sender's outbox
//	repeat    until no events remain
//
// Threads switch exactly as they do under the serial executor: the worker
// that claimed a shard for this window is the resumer (Thread.resume) of
// that shard's coroutines, and a blocking thread suspends back to it
// (Thread.suspend). Which worker that is changes from window to window;
// a coroutine may be resumed from any goroutine, one at a time, and the
// barrier orders one window's resumes before the next's.
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
	"sync"
	"sync/atomic"

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

	// tornHeld tracks words on this node currently mid-tear under a remote
	// RMW (model.TornRCAS): the responder serializes remote atomics, so
	// other remote RMWs on the word stall until the write half lands.
	// Owned by this shard's timeline under both executors.
	tornHeld map[ptr.Ptr]bool

	// tornWrites holds the pending write half of each in-flight torn remote
	// CAS on this node, snapshotted at read-half time. The snapshot keeps
	// evTornWrite self-contained: the requester thread may resume (its
	// completion is up to one lookahead ahead of the write half, so in a
	// parallel window the resume can run first on its own shard) and reuse
	// its verb state before the write half executes here.
	tornWrites map[*Thread]tornWrite

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
// time on the responder shard (see shard.tornWrites).
type tornWrite struct {
	p        ptr.Ptr
	old, val uint64
	read     uint64 // read-half result; the write lands iff read == old
}

func newShard(e *Engine, node int) *shard {
	return &shard{
		e:          e,
		node:       node,
		tornHeld:   make(map[ptr.Ptr]bool),
		tornWrites: make(map[*Thread]tornWrite),
	}
}

// nextSeq issues the next sequence number on this shard's timeline.
func (s *shard) nextSeq() uint64 {
	seq := uint64(s.node)<<seqShardShift | s.seqCtr
	s.seqCtr++
	return seq
}

// runWindow executes this shard's events with at < s.wend in (at, seq)
// order, on whichever worker claimed the shard this window: wake-ups and
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

// windowPool owns the helper goroutines of one windowed Run. The helpers
// are spawned once (each backed by an execution slot the caller already
// acquired) and parked on the start channel between windows; runWindow
// wakes as many as the window can use, joins in as the coordinator, and
// waits for the window to drain. Spawning per Run instead of per window
// keeps the per-window dispatch allocation-free — windows are the hot
// path of a parallel Run, often a handful of events each.
type windowPool struct {
	e       *Engine
	helpers int
	start   chan struct{}
	wg      sync.WaitGroup
}

func newWindowPool(e *Engine, helpers int) *windowPool {
	p := &windowPool{e: e, helpers: helpers, start: make(chan struct{})} //lint:allow allocfree pool construction runs once per windowed Run, not per window
	for i := 0; i < helpers; i++ {
		go p.helperLoop() //lint:allow allocfree helpers are spawned once per Run and parked between windows
	}
	return p
}

// helperLoop parks on the start channel; each token is one window's worth
// of claiming work. close(start) retires the helper.
func (p *windowPool) helperLoop() {
	for range p.start {
		p.e.claimShards()
		p.wg.Done()
	}
}

// runWindow drives one window: every woken helper plus the coordinator
// drain e.winActive through the shared claim counter. Helpers beyond
// len(winActive)-1 stay parked — they could only spin on an exhausted
// counter.
func (p *windowPool) runWindow() {
	k := p.helpers
	if h := len(p.e.winActive) - 1; k > h {
		k = h
	}
	p.e.winClaim.Store(0)
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		p.start <- struct{}{}
	}
	p.e.claimShards()
	p.wg.Wait()
}

// close retires the helpers; the pool is unusable afterwards.
func (p *windowPool) close() { close(p.start) }

// claimShards executes active shards' windows, claiming indices from the
// shared counter until none remain. The coordinator and every pool helper
// run it concurrently; claim order is irrelevant to results because
// window boundaries depend on event times alone.
func (e *Engine) claimShards() {
	for {
		i := int(e.winClaim.Add(1)) - 1
		if i >= len(e.winActive) {
			return
		}
		e.winActive[i].runWindow()
	}
}

// clearWindowed is runWindowed's deferred exit hook.
func (e *Engine) clearWindowed() { e.windowed = false }

// runWindowed is Run's parallel driver. Concurrency is governed by
// the process-wide execution-slot budget (internal/slots): the Run caller
// owns one implicit slot, and each helper goroutine beyond it needs an
// extra slot, capped by the configured worker count and the node count.
// Zero granted extras still runs the windowed executor — the coordinator
// just executes every active shard's window itself. The window structure
// (and therefore every result) is identical at any width; only wall-clock
// time changes.
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
		total := e.events
		for _, s := range e.shards {
			total += s.events
		}
		if total > e.maxEvents {
			e.foldShards()
			e.stopThreads()
			panic(fmt.Errorf("sim: exceeded %d events at t=%dns — livelock?", e.maxEvents, e.now))
		}
		// The safe window: nothing can cross shards before minHead+lookahead.
		wend := minHead + e.lookahead
		e.winActive = e.winActive[:0]
		for _, s := range e.shards {
			if s.q.len() > 0 && s.q.min().at < wend {
				s.wend = wend
				s.active.Store(true)
				e.winActive = append(e.winActive, s)
			}
		}
		pool.runWindow()
		for _, s := range e.shards {
			if s.trap != nil {
				e.foldShards()
				e.stopThreads()
				panic(s.trap)
			}
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
	if e.stopRequested.Load() || e.now >= e.stopAt {
		e.stopped = true
	}
}
