// spin.go is api.Ctx.SpinWhile's parked wait and the event budget that has to
// see through it.
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
// The event budget (WithMaxEvents) traps at the loop's event count and clock:
// the budget's (n+1)th event in the event order, a skipped block or not. A
// timeline plans how many events it may dispatch, and up to which instant,
// before its count could reach the budget with every skipped block counted
// (plan: a bound on the blocks the parked loops can run meanwhile); within the
// plan dispatch looks no closer. Without a plan it goes exact: it runs the
// skipped blocks one by one in order with the queue's events (exactNext),
// which is also how Step and ProcessNextEvent run, so every step is the
// loop's step, and a queue that drains around parked loops leaps to the trap
// (leap). The windowed executor hands the Run to the serial loop at the
// barrier where a few windows' worth of room is left (nearBudget), so the trap
// is the serial loop's on every executor.
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
	maxIssue      = 1<<(64-seqIssueShift) - 1 // ~9.8 hours of virtual time; past it a timeline traps (pastIssue)
)

// eventSeq is the key of th's event of the given kind issued at issue.
func eventSeq(issue int64, th int, kind uint8) uint64 {
	return uint64(issue)<<seqIssueShift | uint64(th)<<seqKindBits | uint64(kind)
}

// pastIssue is the trap of a timeline whose next event lies past maxIssue:
// events issued after it would not fit their keys, and their ties would break
// in the wrong order. Every plan ends at maxIssue, so dispatch looks no closer
// before it.
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
// its polls are events in the queue. end is the earliest of them — the blocks
// before it are the skipped ones — or MaxInt64 if none is; woken says that it
// is a store's wake, dl is the deadline's (at 0 when the wait has none).
type spinWait struct {
	pos    spinPos
	since  int64 // when it parked at pos last: its share of shard.parkedSince
	end    int64
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
	e, w, s := t.e, &t.spin, t.shard
	w.pos = spinPos{at: t.now(), iter: op.iter, poll: true}
	w.woken = false
	s.parkedSince += w.pos.at - w.since
	w.since = w.pos.at
	if !w.parked {
		w.parked = true
		s.parked = append(s.parked, t)
		if op.deadline > 0 {
			at, issue := e.pollAt(w.pos, op.deadline)
			w.dl = wakeID{at, eventSeq(issue, t.id, evWake)}
			if e.audit {
				checkSeq(issue, t.id, evWake)
			}
			e.pushWake(t, w.dl)
		}
	}
	w.end = math.MaxInt64
	if w.dl.at != 0 {
		w.end = w.dl.at
	}
	e.parkChanged(s.tl)
}

// unpark ends the thread's parked wait at the poll that ended the loop. A
// deadline read still queued behind it has become stale.
func (t *Thread) unpark() {
	w := &t.spin
	if w.dl.at != 0 && w.dl.at != t.now() {
		t.stales = append(t.stales, w.dl)
		t.shard.tl.stale++
	}
	s := t.shard
	s.parkedSince -= w.since
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
	t.e.parkChanged(s.tl)
}

// stored wakes the threads parked on p, which holds v since a store at the
// point (at, seq) of the event order, unless v is the value they wait out or a
// poll of theirs is queued already at or before the one that sees the store.
func (s *shard) stored(p ptr.Ptr, v uint64, at int64, seq uint64) {
	e, woke := s.e, false
	for _, th := range s.parked {
		w, op := &th.spin, &th.ops[th.head]
		if w.woken || op.p != p || v == op.old {
			continue
		}
		done, issue := e.pollAfter(w.pos, th.id, at, seq)
		if done >= w.end {
			continue // the deadline's poll comes first
		}
		if e.audit {
			checkSeq(issue, th.id, evWake)
		}
		w.end, w.woken, woke = done, true, true
		e.pushWake(th, wakeID{done, eventSeq(issue, th.id, evWake)})
	}
	if woke {
		e.parkChanged(s.tl)
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

// shardsOn returns the shards that run on tl.
func (e *Engine) shardsOn(tl *timeline) []*shard {
	if tl.owner != nil {
		return tl.owner.alone
	}
	return e.shards
}

// nextVirtual returns the parked thread whose next skipped block comes first in
// the event order among those on tl, but for except, with the block's end and
// key; th is nil if no parked loop has a skipped block left.
func (e *Engine) nextVirtual(tl *timeline, except *Thread) (th *Thread, at int64, seq uint64) {
	for _, s := range e.shardsOn(tl) {
		for _, t := range s.parked {
			if t == except {
				continue
			}
			w := &t.spin
			done, _ := e.nextBlock(w.pos)
			if done >= w.end {
				continue
			}
			if k := eventSeq(w.pos.at, t.id, evWake); th == nil || done < at || done == at && k < seq {
				th, at, seq = t, done, k
			}
		}
	}
	return th, at, seq
}

// uncredited is the number of skipped blocks of the loops parked on tl's
// shards that end before t and are not yet credited.
func (e *Engine) uncredited(tl *timeline, t int64) (n uint64) {
	for _, s := range e.shardsOn(tl) {
		n += s.uncredited(t)
	}
	return n
}

// uncredited is the number of skipped blocks of the loops parked on s that end
// before t and are not yet credited.
func (s *shard) uncredited(t int64) (n uint64) {
	for _, th := range s.parked {
		pos := th.spin.pos
		n += s.e.skip(&pos, min(t, th.spin.end))
	}
	return n
}

// parkedBound is a bound on the uncredited blocks before t of n parked loops
// whose park instants sum to since, that costs nothing per loop: a loop's
// blocks come at most two per read-and-longest-Pause after its first 2(k+2),
// k being the doublings that take the back-off to its cap.
func (e *Engine) parkedBound(n, since, t int64) uint64 {
	if n == 0 {
		return 0
	}
	k := int64(1)
	for d := e.p.SpinPollMinNS; d < e.p.SpinPollMaxNS; d <<= 1 {
		k++
	}
	return uint64(max(0, 2*(n*t-since)/(e.p.LocalReadNS+e.p.SpinPollMaxNS)) + 2*(k+2)*n)
}

// credit credits every skipped block of the loops parked on s that ends before
// t to tl, and returns when the last of them ended (0 if none did).
func (s *shard) credit(tl *timeline, t int64) (last int64) {
	for _, th := range s.parked {
		w := &th.spin
		if n := s.e.skip(&w.pos, min(t, w.end)); n > 0 {
			tl.credited += n
			last = max(last, w.pos.at)
		}
	}
	return last
}

// anyParked reports whether a thread is parked on any shard.
func (e *Engine) anyParked() bool {
	for _, s := range e.shards {
		if len(s.parked) != 0 {
			return true
		}
	}
	return false
}

// What closer tells dispatch to do next.
const (
	goPop  = iota // pop the queue's head
	goOn          // closer ran a skipped block: that was the turn
	goStop        // nothing more to run before the window end (or the cap)
)

// closer is dispatch's look past its plan: the plan ran out, the queue's head
// lies past its horizon, or the engine's queue is empty. Within a new plan it
// hands the head back to dispatch (or ends the loop); without one it goes
// exact.
func (e *Engine) closer(tl *timeline) (int, error) {
	if !tl.exact {
		drained := tl.q.len() == 0
		if tl.events >= tl.budget || drained || tl.q.min().at >= tl.limit {
			// A plan that does not reach the head could not cover the blocks
			// parked loops run before it.
			if !e.plan(tl) || !drained && tl.q.min().at >= tl.limit {
				e.exactFrom(tl)
				return e.exactNext(tl)
			}
		}
		if drained || tl.q.min().at >= tl.wend {
			return goStop, nil
		}
		return goPop, nil
	}
	return e.exactNext(tl)
}

// plan gives tl a plan: the events it may dispatch (budget) and the instant
// before which they must lie (limit) for its count — skipped blocks credited or
// not — to stay under its cap. Over a span of L ns a thread's parked loops
// (one per park, and a park is a dispatched event) run at most 2L/(read+min
// Pause)+2 blocks each, so a plan that dispatches A events spends at most
// 3A + threads x (2L/(read+min Pause)+2); it gives A an eighth of the room and
// the threads' blocks half. It reports false — tl must go exact — when the
// room is too small for a plan, or the engine's queue has drained around
// parked threads, whose loops then run into the budget.
func (e *Engine) plan(tl *timeline) bool {
	if tl.owner == nil && tl.q.len() == 0 && e.anyParked() {
		return false
	}
	used := tl.events + tl.credited + e.uncredited(tl, tl.now+1)
	if used >= e.maxEvents {
		return false
	}
	room := e.maxEvents - used
	threads := uint64(len(e.threads))
	if tl.owner != nil {
		threads = uint64(tl.owner.nthreads)
	}
	per := room / 2 / max(threads, 1)
	if room < 8 || per < 3 {
		return false
	}
	block := uint64(e.p.LocalReadNS + e.p.SpinPollMinNS)
	span := int64(math.MaxInt64 / 4)
	if per-2 < uint64(span)/block {
		span = int64((per - 2) * block / 2)
	}
	tl.budget = tl.events + room/8
	tl.limit = min(tl.now+min(span, math.MaxInt64-tl.now), maxIssue+1)
	tl.until = min(tl.wend, tl.limit)
	return true
}

// exactFrom puts tl in exact mode: the skipped blocks that ended before its
// clock are credited, and the rest run one by one (exactNext).
func (e *Engine) exactFrom(tl *timeline) {
	for _, s := range e.shardsOn(tl) {
		s.credit(tl, tl.now)
	}
	tl.exact = true
	e.refresh(tl)
}

// refresh re-aims an exact timeline at its next skipped block: dispatch, and
// tryAdvance's in-place test, stop short of it.
func (e *Engine) refresh(tl *timeline) {
	tl.limit = maxIssue + 1
	if th, at, _ := e.nextVirtual(tl, nil); th != nil {
		tl.limit = min(at, tl.limit)
	}
	tl.until = min(tl.wend, tl.limit)
	tl.budget = 0
	if c := tl.events + tl.credited; c < e.maxEvents {
		tl.budget = tl.events + (e.maxEvents - c)
	}
}

// parkChanged is called when a parked loop on tl's shards changes: an exact
// timeline re-aims at the next skipped block.
func (e *Engine) parkChanged(tl *timeline) {
	if tl.exact {
		e.refresh(tl)
	}
}

// exactNext runs an exact timeline's next turn: the earlier, in the event
// order, of the queue's head and the next skipped block — the block here, the
// head by dispatch. At the cap, the engine's timeline counts that event and
// traps; a shard's own timeline stops its window before it.
func (e *Engine) exactNext(tl *timeline) (int, error) {
	tl.dropStale()
	th, vat, vseq := e.nextVirtual(tl, nil)
	var head *event
	if tl.q.len() > 0 {
		head = tl.q.min()
	}
	skipped := th != nil && vat < tl.wend && (head == nil || vat < head.at || vat == head.at && vseq < head.seq)
	if !skipped && (head == nil || head.at >= tl.wend) {
		return goStop, nil
	}
	if !skipped && head.at > maxIssue || skipped && vat > maxIssue {
		return goStop, pastIssue(tl)
	}
	if tl.events+tl.credited >= e.maxEvents {
		if skipped {
			tl.now = vat
			tl.credited++
		} else {
			tl.now = max(tl.now, tl.q.pop().at)
			tl.events++
		}
		return goStop, fmt.Errorf("sim: exceeded %d events at t=%dns — livelock?", e.maxEvents, tl.now)
	}
	if !skipped {
		e.refresh(tl)
		return goPop, nil
	}
	if head == nil && !e.stepping {
		e.leap(tl)
		if th, vat, _ = e.nextVirtual(tl, nil); th == nil || vat >= tl.wend {
			return goStop, nil
		}
		if vat > maxIssue {
			return goStop, pastIssue(tl)
		}
	}
	_, th.spin.pos = e.nextBlock(th.spin.pos)
	tl.now = vat
	tl.credited++
	next := goOn
	if th.spinOn() {
		next = goPop // the loop's next poll ran in place, and it is the wake at the head
	}
	e.refresh(tl)
	return next, nil
}

// leap is exactNext's way through a drained queue around parked threads, whose
// loops then run into the cap with nothing else to order them against: it
// credits their blocks up to the last instant (before the window end) at which
// twice as many more as there are parked loops still fit under the cap (found
// by bisection over uncredited), so that only those few run one by one.
func (e *Engine) leap(tl *timeline) {
	parked := uint64(0)
	for _, s := range e.shardsOn(tl) {
		parked += uint64(len(s.parked))
	}
	room := e.maxEvents - tl.events - tl.credited
	if room <= 2*parked+1 {
		return
	}
	lo, hi := tl.now, min(tl.wend, maxIssue+1) // nothing reaches a drained shard before its window end
	if per := uint64(e.p.SpinPollMaxNS + e.p.LocalReadNS); room < uint64(hi-lo)/per {
		hi = lo + int64(room+1)*int64(per) // every loop runs a block per per ns at least
	}
	for lo < hi { // the last instant whose blocks before it leave room for the rest
		mid := lo + (hi-lo+1)/2
		if e.uncredited(tl, mid) <= room-2*parked-1 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	for _, s := range e.shardsOn(tl) {
		tl.now = max(tl.now, s.credit(tl, lo))
	}
}

// spinOn runs a parked thread's loop on in place on an exact timeline, block
// by block, as tryAdvance runs the written-out loop's blocks after one of them
// has ended: while the next one ends before everything else on the timeline
// (and below its cap). It reports true when the loop got to the poll whose
// wake is queued — the wake is then the queue's head and is due now, as the
// loop's poll would be. Between Steps the thread thus stands where the loop's
// would.
func (t *Thread) spinOn() bool {
	e, tl, w := t.e, t.shard.tl, &t.spin
	if !tl.exact {
		return false
	}
	for tl.events+tl.credited < e.maxEvents {
		done, next := e.nextBlock(w.pos)
		if done >= tl.wend || done > maxIssue {
			return false
		}
		if o, at, _ := e.nextVirtual(tl, t); o != nil && at <= done {
			return false
		}
		tl.dropStale()
		if done == w.end { // the wake: at the head, alone at its instant
			m := tl.q.min()
			if m.th != t || m.at != done || m.kind != evWake {
				return false
			}
			ev := tl.q.pop()
			clear := tl.q.len() == 0 || tl.q.min().at > done
			tl.q.push(ev)
			return clear
		}
		if tl.q.len() > 0 && tl.q.min().at <= done {
			return false
		}
		w.pos, tl.now = next, done
		tl.credited++
	}
	return false
}
