// spin.go is api.Ctx.SpinWhile's parked wait.
//
// SpinWhile is the loop
//
//	for iter := 0; ; iter++ {
//		if got := Read(p); got != old { return got }
//		if deadline > 0 && Now() >= deadline { return old }
//		Pause(iter)
//	}
//
// and every Read and Pause is a block of virtual time that counts as one event.
// A poll that finds the word unchanged learns nothing, and neither do the
// polls after it until something stores to the word — so a failed poll parks
// the thread on the word (park) instead of scheduling its Pause. Where the
// loop stands is a function of its own times: the instant its last block
// ended, whether that was a poll or a Pause, and the failed polls so far
// (spinPos). The blocks after it follow from the back-off alone (nextBlock),
// each at the key the loop would have given it (eventSeq: its issue time, the
// thread, evWake). Two kinds of poll are events in the queue:
//
//   - a store's wake. A store that leaves a parked word different from the
//     value waited on (stored) pushes the spinner's read at the first of its
//     polls that comes after the store in the event order (pollAfter) — the
//     poll of the loop that would have seen it first. Stores before it, that
//     change the word back, are seen by that poll just as they are by the
//     loop's; if it fails, the thread parks again there.
//   - the deadline's. A timed wait pushes, at its first park, the read of the
//     poll that finds the deadline passed (pollAt). If a store's wake ends the
//     wait first, the deadline's read is stale: it pops to nothing, uncounted
//     and without moving the clock (Thread.stales).
//
// The blocks in between are skipped, and credited to the timeline's event
// count (timeline.credited) when the poll that ends them pops (wake), so
// Events counts every block of the loop. The windowed executor's telemetry
// keeps them apart from the events it dispatched.
//
// The event budget (WithMaxEvents) bounds what the executors dispatch, so a
// parked wait, which does no work, spends none of it. A wait that nothing is
// left to end — the queue has drained around it — is a trap of its own
// (waitsForever), where the loop would have polled on into the budget.
package sim

import (
	"fmt"

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
	maxIssue      = 1<<(64-seqIssueShift) - 1 // ~9.8 hours of virtual time; past it a timeline traps (pastIssue)
)

// eventSeq is the key of th's event of the given kind issued at issue.
func eventSeq(issue int64, th int, kind uint8) uint64 {
	return uint64(issue)<<seqIssueShift | uint64(th)<<seqKindBits | uint64(kind)
}

// pastIssue is the trap of a timeline whose next event lies past maxIssue:
// events issued after it would not fit their keys, and their ties would break
// in the wrong order. A timeline's until ends at maxIssue, so dispatch looks
// at it only there.
func pastIssue(tl *timeline) error {
	return fmt.Errorf("sim: virtual time past %dns at t=%dns, the latest instant an event key holds", maxIssue, tl.now)
}

// checkSeq is the test binaries' check that an event's fields fit its key.
func checkSeq(issue int64, th int, kind uint8) {
	if issue < 0 || issue > maxIssue || th < 0 || th >= maxThreads || kind >= 1<<seqKindBits {
		panic(fmt.Sprintf("sim: event key overflow (issue %dns, thread %d, kind %d)", issue, th, kind))
	}
}

// spinPos is where a parked SpinWhile loop stands: the instant its last block
// ended (ran, or was credited), whether that block was a failed poll (the
// Pause comes next) or a Pause (the poll's read comes next), and its failed
// polls so far (the back-off of its next Pause).
type spinPos struct {
	at   int64
	iter int32
	poll bool
}

// wakeID names one queued evWake of a thread: its time and key.
type wakeID struct {
	at  int64
	seq uint64
}

// spinWait is a thread's parked SpinWhile: where its loop stands, and which of
// its polls are events in the queue — woken says that a store's wake is, dl is
// the deadline's (at 0 when the wait has none).
type spinWait struct {
	pos    spinPos
	dl     wakeID
	parked bool
	woken  bool
}

// iterCap bounds a parked loop's failed-poll count: far past where the back-off
// stops growing, so the saturation changes no Pause.
const iterCap = 1 << 30

// nextBlock returns when the block after pos ends, and pos moved past it. The
// block is issued at pos.at.
func (e *Engine) nextBlock(pos spinPos) (int64, spinPos) {
	if pos.poll {
		d := e.spinBackoff(int(pos.iter))
		return pos.at + d, spinPos{at: pos.at + d, iter: min(pos.iter+1, iterCap)}
	}
	done := pos.at + e.p.LocalReadNS
	return done, spinPos{at: done, iter: pos.iter, poll: true}
}

// skip moves pos across every block that ends before `before` and returns how
// many it crossed. Once the back-off is at its cap the loop is periodic, and
// whole Pause-and-poll cycles are crossed at once.
func (e *Engine) skip(pos *spinPos, before int64) (n uint64) {
	for {
		if pos.poll && e.spinBackoff(int(pos.iter)) == e.p.SpinPollMaxNS {
			cycle := e.p.SpinPollMaxNS + e.p.LocalReadNS
			if c := (before - 1 - pos.at) / cycle; c > 0 {
				pos.at += c * cycle
				pos.iter = int32(min(int64(pos.iter)+c, iterCap))
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
// sees a store made there. Both poll finders give an issue past maxIssue as
// maxIssue: the poll then ends past it too, where every timeline traps before
// it runs (pastIssue), so its key need only fit.
func (e *Engine) pollAfter(pos spinPos, th int, at int64, seq uint64) (int64, int64) {
	e.skip(&pos, at)
	for {
		done, next := e.nextBlock(pos)
		if !pos.poll && (done > at || eventSeq(pos.at, th, evWake) > seq) {
			return done, min(pos.at, maxIssue)
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
			return done, min(pos.at, maxIssue)
		}
		pos = next
	}
}

// pushWake queues th's evWake w on its shard's timeline.
func (e *Engine) pushWake(th *Thread, w wakeID) {
	th.shard.tl.q.push(event{at: w.at, seq: w.seq, th: th, kind: evWake, dst: int16(th.node)})
}

// wake is step's first look at a SpinWhile entry whose poll has just read: if
// the thread was parked, the blocks its loop skipped up to this poll are
// credited and the loop's failed-poll count catches up.
func (t *Thread) wake(op *localOp) {
	if w := &t.spin; w.parked {
		t.shard.tl.credited += t.e.skip(&w.pos, t.now())
		op.iter = w.pos.iter
	}
}

// park parks the thread on op's word after a failed poll, where the loop would
// schedule its Pause: at its first park, a timed wait queues the read of the
// poll that finds the deadline passed.
func (t *Thread) park(op *localOp) {
	e, w := t.e, &t.spin
	w.pos = spinPos{at: t.now(), iter: op.iter, poll: true}
	w.woken = false
	if w.parked {
		return
	}
	w.parked = true
	t.shard.parked = append(t.shard.parked, t)
	if op.deadline > 0 {
		at, issue := e.pollAt(w.pos, op.deadline)
		w.dl = wakeID{at, eventSeq(issue, t.id, evWake)}
		if e.audit {
			checkSeq(issue, t.id, evWake)
		}
		e.pushWake(t, w.dl)
	}
}

// unpark ends the thread's parked wait at the poll that ended the loop. A
// deadline read still queued behind it has become stale.
func (t *Thread) unpark() {
	w, s := &t.spin, t.shard
	if w.dl.at != 0 && w.dl.at != t.now() {
		t.stales = append(t.stales, w.dl)
		s.tl.stale++
	}
	for i, th := range s.parked {
		if th == t {
			last := len(s.parked) - 1
			s.parked[i] = s.parked[last]
			s.parked[last] = nil
			s.parked = s.parked[:last]
			break
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
// parked SpinWhile: no event is left that could store to its word, so the
// wait never ends (nil if no thread is parked).
func (e *Engine) waitsForever() error {
	for _, t := range e.threads {
		if t.spin.parked {
			return fmt.Errorf("sim: thread %d waits forever in SpinWhile on %v", t.id, t.ops[t.head].p)
		}
	}
	return nil
}
