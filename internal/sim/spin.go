// spin.go is the parked wait of api.Ctx.SpinWhile and api.Ctx.SpinUntil, and
// of a WorkLoop that waits on a Signal.
//
// SpinWhile and SpinUntil are the loop
//
//	for ; ; iter++ {
//		v := Read(p)
//		if done(v, deadline > 0 && Now() >= deadline) { return v, iter }
//		Pause(iter)
//	}
//
// with SpinWhile's done the compare `v != old || expired` and its iter
// starting at 0, and every Read and Pause is a block of virtual time that
// counts as one event. Whether a poll fails depends only on the value it reads
// and on which side of the deadline its read lands: done is a function of
// (v, expired) and of thread state the wait does not change. So a poll that
// fails learns nothing, and neither do the polls after it that read the same
// value on the same side of the deadline — a failed poll parks the thread on
// the word (park), with the value it read as the one it waits out (op.old),
// instead of scheduling its Pause. Where the loop stands is a function of its
// own times: the instant its last block ended, whether that was a poll or a
// Pause, and the failed polls so far (spinPos). The blocks after it follow
// from the back-off alone (nextBlock), each at the key the loop would have
// given it (eventSeq: its issue time, the thread, evWake). Two kinds of poll
// are events in the queue:
//
//   - a store's wake. A store that leaves a parked word different from the
//     value waited out (stored) pushes the spinner's read at the first of its
//     polls that comes after the store in the event order (pollAfter) — the
//     poll of the loop that would have seen it first. Stores before it, that
//     change the word back, are seen by that poll just as they are by the
//     loop's; if it fails, the thread parks again there, on what it read.
//   - the deadline's. A wait's first park, if it comes before the deadline,
//     queues the read of the poll that finds the deadline passed (pollAt).
//     If a store's wake ends the wait first, the deadline's read is stale: it
//     pops to nothing, uncounted and without moving the clock
//     (Thread.stales). If it pops and done still fails, the thread parks again
//     past the deadline, where only a store can end the wait.
//
// The blocks in between are skipped, and credited to the timeline's event
// count (timeline.credited) when the poll that ends them pops (wake), so
// Events counts every block of the loop, and the loop's iter comes back as
// the loop would leave it. done is asked only on the polls that run: a
// subsequence of the loop's calls, with the same answers, ending at the same
// call. The windowed executor's telemetry keeps the skipped blocks apart from
// the events it dispatched.
//
// A WorkLoop waits the same way when its thread waits on a Signal (Go state of
// its node, such as a lock service's admission queue): every turn is a look of
// the same length (spinPos.period), whose answer changes only when the state
// is raised or the run stops. A look that goes on parks the thread (parkLoop)
// instead of scheduling its Work, and two kinds of look are events:
//
//   - a raise's wake. Raise pushes the look, among those of the signal's
//     parked waiters not woken already, that comes first after the raise in
//     the event order — one waiter per raise. If that look finds the state
//     taken by then, the thread parks again there.
//   - the horizon's, the first look that finds the run stopped. It is queued
//     once the executor reaches the horizon (armHorizon): the serial loop
//     when the next event lies at or past it, the windowed executor at the
//     barrier of the window that could reach it. A wait that parks after that
//     queues it at once, and it goes stale, as a deadline's read does, if a
//     raise's wake ends the wait first.
//
// The skipped looks are credited the same way.
//
// The event budget (WithMaxEvents) bounds what the executors dispatch, so a
// parked wait, which does no work, spends none of it. A wait that nothing is
// left to end — the queue has drained around it — is a trap of its own
// (waitsForever), where the loop would have polled on into the budget.
package sim

import (
	"fmt"
	"math"

	"alock/internal/ptr"
)

// Event keys: an event's seq packs its issue time (the clock of the timeline
// it was scheduled from), its thread and its kind, most significant first, so
// that ties on the virtual clock break by issue time, then thread ID, then
// kind — a function of the event alone, not of any push order.
const (
	seqKindBits   = 3
	seqThreadBits = 16
	seqIssueShift = seqKindBits + seqThreadBits
	maxThreads    = 1 << seqThreadBits
)

// MaxIssueNS is the latest virtual instant an event key holds, ~9.8 hours:
// a run whose clock would pass it traps (pastIssue), so harnesses refuse a
// horizon past it.
const MaxIssueNS = 1<<(64-seqIssueShift) - 1

// eventSeq is the key of th's event of the given kind issued at issue.
func eventSeq(issue int64, th int, kind uint8) uint64 {
	return uint64(issue)<<seqIssueShift | uint64(th)<<seqKindBits | uint64(kind)
}

// pastIssue is the trap of a timeline whose next event lies past MaxIssueNS:
// events issued after it would not fit their keys, and their ties would break
// in the wrong order. A timeline's until ends at MaxIssueNS, so dispatch looks
// at it only there.
func pastIssue(tl *timeline) error {
	return fmt.Errorf("sim: virtual time past %dns at t=%dns, the latest instant an event key holds", MaxIssueNS, tl.now)
}

// checkSeq is the test binaries' check that an event's fields fit its key.
func checkSeq(issue int64, th int, kind uint8) {
	if issue < 0 || issue > MaxIssueNS || th < 0 || th >= maxThreads || kind >= 1<<seqKindBits {
		panic(fmt.Sprintf("sim: event key overflow (issue %dns, thread %d, kind %d)", issue, th, kind))
	}
}

// spinPos is where a parked wait loop stands: the instant its last block ended
// (ran, or was credited), whether that block was a failed poll (the Pause
// comes next) or a Pause (the poll's read comes next), and its iter (the
// back-off of its next Pause). A WorkLoop wait has a period instead: every
// block is a look of that length, and poll stays false.
type spinPos struct {
	at     int64
	iter   int64
	period int64
	poll   bool
}

// wakeID names one queued evWake of a thread: its time and key.
type wakeID struct {
	at  int64
	seq uint64
}

// spinWait is a thread's parked wait: where its loop stands, and which of its
// polls are events in the queue — woken says that a store's wake is, dl is the
// deadline's (at 0 when none is queued).
type spinWait struct {
	pos    spinPos
	dl     wakeID
	parked bool
	woken  bool
}

// inLoop reports whether the wait is a WorkLoop parked on its signal.
func (w *spinWait) inLoop() bool { return w.parked && w.pos.period > 0 }

// nextBlock returns when the block after pos ends, and pos moved past it. The
// block is issued at pos.at.
func (e *Engine) nextBlock(pos spinPos) (int64, spinPos) {
	if pos.period > 0 {
		pos.at += pos.period
		return pos.at, pos
	}
	if pos.poll {
		d := e.spinBackoff(int(pos.iter))
		return pos.at + d, spinPos{at: pos.at + d, iter: pos.iter + 1}
	}
	done := pos.at + e.p.LocalReadNS
	return done, spinPos{at: done, iter: pos.iter, poll: true}
}

// skip moves pos across every block that ends before `before` and returns how
// many it crossed. A WorkLoop wait is periodic, and so is a spin loop once its
// back-off is at its cap: whole periods are crossed at once.
func (e *Engine) skip(pos *spinPos, before int64) (n uint64) {
	if pos.period > 0 {
		if c := (before - 1 - pos.at) / pos.period; c > 0 {
			pos.at += c * pos.period
			n = uint64(c)
		}
		return n
	}
	for {
		if pos.poll && e.spinBackoff(int(pos.iter)) == e.p.SpinPollMaxNS {
			cycle := e.p.SpinPollMaxNS + e.p.LocalReadNS
			if c := (before - 1 - pos.at) / cycle; c > 0 {
				pos.at += c * cycle
				pos.iter += c
				n += 2 * uint64(c)
			}
		}
		done, next := e.nextBlock(*pos)
		if done >= before {
			return n
		}
		*pos, n = next, n+1
	}
}

// pollAfter returns the end and issue time of the first poll of the loop at
// pos that comes after the point (at, seq) of the event order: the poll that
// sees a store made there. Both poll finders give an issue past MaxIssueNS as
// MaxIssueNS: the poll then ends past it too, where every timeline traps before
// it runs (pastIssue), so its key need only fit.
func (e *Engine) pollAfter(pos spinPos, th int, at int64, seq uint64) (int64, int64) {
	e.skip(&pos, at)
	for {
		done, next := e.nextBlock(pos)
		if !pos.poll && (done > at || eventSeq(pos.at, th, evWake) > seq) {
			return done, min(pos.at, MaxIssueNS)
		}
		pos = next
	}
}

// pollAt returns the end and issue time of the first poll of the loop at pos
// that ends at or after t: the one that finds a deadline t passed.
func (e *Engine) pollAt(pos spinPos, t int64) (int64, int64) {
	e.skip(&pos, t)
	for {
		done, next := e.nextBlock(pos)
		if !pos.poll {
			return done, min(pos.at, MaxIssueNS)
		}
		pos = next
	}
}

// pushWake queues th's evWake w on its shard's timeline.
func (e *Engine) pushWake(th *Thread, w wakeID) {
	th.shard.tl.q.push(event{at: w.at, seq: w.seq, th: th, kind: evWake, dst: int16(th.node)})
}

// wake is step's first look at a wait entry whose poll's read is due: if
// the thread was parked, the blocks its loop skipped up to this poll are
// credited and the loop's iter catches up.
func (t *Thread) wake(op *localOp) {
	if w := &t.spin; w.parked {
		t.shard.tl.credited += t.e.skip(&w.pos, t.now())
		op.iter = w.pos.iter
	}
}

// park parks the thread on op's word after a failed poll, where the loop would
// schedule its Pause: a park at the deadline's read forgets it, and a first
// park before the deadline queues the read of the poll that finds it passed.
// (A later park finds that read queued, or comes after the deadline too.)
func (t *Thread) park(op *localOp) {
	e, w, now := t.e, &t.spin, t.now()
	w.pos = spinPos{at: now, iter: op.iter, poll: true}
	w.woken = false
	if w.dl.at == now {
		w.dl = wakeID{} // this poll was the deadline's
	}
	if w.parked {
		return
	}
	w.parked = true
	t.shard.parked = append(t.shard.parked, t)
	if op.deadline > now {
		at, issue := e.pollAt(w.pos, op.deadline)
		w.dl = wakeID{at, eventSeq(issue, t.id, evWake)}
		if e.audit {
			checkSeq(issue, t.id, evWake)
		}
		e.pushWake(t, w.dl)
	}
}

// unpark ends the thread's parked wait at the poll or look that ended the
// loop. A deadline read or horizon look still queued behind it has become
// stale.
func (t *Thread) unpark() {
	w, s := &t.spin, t.shard
	if w.dl.at != 0 && w.dl.at != t.now() {
		t.stales = append(t.stales, w.dl)
		s.tl.stale++
	}
	if w.pos.period > 0 { // a WorkLoop wait is on its signal's list, not the shard's
		t.signal.parked--
	} else {
		for i, th := range s.parked {
			if th == t {
				last := len(s.parked) - 1
				s.parked[i] = s.parked[last]
				s.parked[last] = nil
				s.parked = s.parked[:last]
				break
			}
		}
	}
	*w = spinWait{}
}

// stored wakes the threads parked on p, which holds v since a store at the
// point (at, seq) of the event order, unless v is the value they wait out or a
// poll of theirs is queued already at or before the one that sees the store.
func (s *shard) stored(p ptr.Ptr, v uint64, at int64, seq uint64) {
	e := s.e
	for _, th := range s.parked {
		w, op := &th.spin, &th.ops[th.head]
		if w.woken || op.p != p || v == op.old {
			continue
		}
		done, issue := e.pollAfter(w.pos, th.id, at, seq)
		if w.dl.at != 0 && done >= w.dl.at {
			continue // the deadline's poll comes first
		}
		if e.audit {
			checkSeq(issue, th.id, evWake)
		}
		w.woken = true
		e.pushWake(th, wakeID{done, eventSeq(issue, th.id, evWake)})
	}
}

// takeStale reports whether the evWake (at, seq) is one of the thread's stale
// deadline reads, and forgets it if so.
func (t *Thread) takeStale(at int64, seq uint64) bool {
	for i, w := range t.stales {
		if w.at == at && w.seq == seq {
			last := len(t.stales) - 1
			t.stales[i] = t.stales[last]
			t.stales = t.stales[:last]
			return true
		}
	}
	return false
}

// dropStale pops the stale deadline reads at the head of tl's queue, so that
// its head is an event that runs.
func (tl *timeline) dropStale() {
	for tl.stale != 0 && tl.q.len() > 0 {
		m := tl.q.min()
		if m.kind != evWake || len(m.th.stales) == 0 || !m.th.takeStale(m.at, m.seq) {
			return
		}
		tl.q.pop()
		tl.stale--
	}
}

// waitsForever is the trap of an engine whose queue has drained around a
// parked wait: no event is left that could store to its word, so the wait
// never ends (nil if no thread is parked).
func (e *Engine) waitsForever() error {
	for _, t := range e.threads {
		if t.spin.parked {
			op, call := &t.ops[t.head], "SpinWhile"
			switch {
			case op.kind == opLoop:
				return fmt.Errorf("sim: thread %d waits forever in WorkLoop on a Signal of node %d", t.id, t.node)
			case op.done != nil:
				call = "SpinUntil"
			}
			return fmt.Errorf("sim: thread %d waits forever in %s on %v", t.id, call, op.p)
		}
	}
	return nil
}

// Signal is Go state of one node that threads of the node wait on in
// api.Ctx.WorkLoop — a lock service's admission queue, which its idle workers
// look at every so often — and that a WorkLoop of the node changes (an arrival
// generator admitting a request). A thread registered with Wait parks between
// its loop's looks, and costs events only when Raise wakes it or the run
// stops (spin.go's header). Build signals and register their waiters before
// Run.
type Signal struct {
	s       *shard
	waiters []*Thread
	parked  int // how many of the waiters are parked in their loop
}

// NewSignal returns a signal on Go state of the given node.
func (e *Engine) NewSignal(node int) *Signal { return &Signal{s: e.shards[node]} }

// Wait registers th, a thread of the signal's node, as a waiter: every
// WorkLoop it runs from then on waits on the signal. Its function must go on
// with the same Work on every turn, change nothing, and answer from the
// signal's state and the stop alone, ending the loop at the first turn that
// finds the run stopped; a turn that ends the loop must take what ended it
// before the thread calls anything that can advance the clock, so that each
// Raise ends at most one wait. A loop that changes its Work or goes on past
// the stop panics in the thread. RequestStop panics while a waiter is parked:
// the stop would reach it only at the horizon's look.
func (sg *Signal) Wait(th *Thread) {
	if th.shard != sg.s {
		panic(fmt.Sprintf("sim: thread %d on node %d waits on a Signal of node %d", th.id, th.node, sg.s.node))
	}
	th.signal = sg
	sg.waiters = append(sg.waiters, th)
	sg.s.e.loopers = append(sg.s.e.loopers, th)
}

// Raise tells the signal that its state changed, in the turn of a WorkLoop of
// its node that is running now (as Wait's rules require, from no other code):
// of the waiters that are parked and not woken already, it wakes the one whose
// next look comes first after this point of the event order, if that look
// comes before the horizon — the look of the written-out loops that sees the
// change first. One raise is one change that can end one wait. A nil signal
// ignores it.
func (sg *Signal) Raise() {
	if sg == nil {
		return
	}
	s := sg.s
	src := s.ticker
	if src == nil {
		panic("sim: Signal.Raise outside a turn of a WorkLoop of its node")
	}
	if sg.parked == 0 {
		return
	}
	e, at := s.e, s.tl.now
	seq := eventSeq(at-src.ops[src.head].d, src.id, evWake) // the turn's Work ends now
	var best *Thread
	var first wakeID
	for _, th := range sg.waiters {
		if w := &th.spin; !w.inLoop() || w.woken {
			continue // busy, in another wait (a lock's SpinWhile), or woken
		}
		done, issue := e.pollAfter(th.spin.pos, th.id, at, seq)
		if done >= e.stopAt {
			continue // the horizon's look sees the stop first
		}
		if e.audit {
			checkSeq(issue, th.id, evWake)
		}
		id := wakeID{done, eventSeq(issue, th.id, evWake)}
		if best == nil || id.at < first.at || id.at == first.at && id.seq < first.seq {
			best, first = th, id
		}
	}
	if best != nil {
		best.spin.woken = true
		e.pushWake(best, first)
	}
}

// parkLoop parks the thread after a turn of its WorkLoop, a waiter on its
// signal, that goes on with a Work of d, where the loop would schedule that
// Work. A first park queues the horizon's look once armHorizon has run. A loop
// that breaks Wait's rules ends, with the panic left for WorkLoop to raise.
func (t *Thread) parkLoop(d int64) bool {
	e, w := t.e, &t.spin
	switch {
	case t.stopped():
		t.loopPanic = "sim: a WorkLoop waiting on a Signal went on past the stop"
	case w.parked && d != w.pos.period:
		t.loopPanic = fmt.Sprintf("sim: a WorkLoop waiting on a Signal changed its Work from %dns to %dns", w.pos.period, d)
	}
	if t.loopPanic != nil {
		if w.parked {
			t.unpark()
		}
		return false
	}
	w.pos, w.woken = spinPos{at: t.now(), period: d}, false
	if !w.parked {
		w.parked = true
		t.signal.parked++
		if e.hzAt == math.MaxInt64 && e.stopAt <= MaxIssueNS {
			t.queueHorizon()
		}
	}
	return true
}

// queueHorizon queues the parked WorkLoop's look that finds the run stopped.
func (t *Thread) queueHorizon() {
	e, w := t.e, &t.spin
	at, issue := e.pollAt(w.pos, e.stopAt)
	w.dl = wakeID{at, eventSeq(issue, t.id, evWake)}
	if e.audit {
		checkSeq(issue, t.id, evWake)
	}
	e.pushWake(t, w.dl)
}

// armHorizon queues the horizon's look of every parked WorkLoop wait, at the
// point where nothing earlier than the horizon is left for the executor to
// dispatch (the serial loop) or before the window that could reach it (the
// windowed executor's barrier). Waits that park from then on queue it at once.
func (e *Engine) armHorizon() {
	e.hzAt = math.MaxInt64
	e.tl.until = MaxIssueNS + 1
	for _, t := range e.loopers {
		if w := &t.spin; w.inLoop() && w.dl.at == 0 {
			t.queueHorizon()
		}
	}
}
