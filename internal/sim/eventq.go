// eventq.go is the engine's event priority queue: a hand-inlined typed
// 4-ary min-heap over []event. The previous implementation went through
// the standard library's heap.Interface, which costs an interface
// conversion (one heap allocation boxing the event struct) on every Push and
// Pop plus dynamic dispatch for every comparison — per scheduled event, on
// the hottest path the engine has. The typed queue allocates only when the backing slice grows, so a
// steady-state simulation schedules and pops with zero heap allocations,
// and the slice is reused across re-arms of the same engine.
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of a
// binary heap: sift-down does more comparisons per level but far fewer
// cache-missing level hops, which wins for the engine's queue sizes (one
// pending event per suspended thread).
//
// Ordering is the engine's total event order — (at, seq), where seq packs the
// event's issue time, thread and kind and is unique among pending events — so
// pop order is independent of heap shape and bit-identical to the
// standard-library heap the tests replay it against (reference_test.go).
// eventLess is that order's definition.
//
// The root may be open. Nearly every event the engine pops pushes its own
// successor a few instructions later — a poll's next poll, a resumed thread's
// next operation, a verb's next protocol step — which is the classic hold.
// Moving the last entry to the root and sifting it to the bottom, only for
// the new event to be sifted up from the bottom again, does that in two
// passes over the heap; so pop just takes the root and leaves the hole, and
// the push that follows drops the new event into it and sifts down, stopping
// as soon as the event is in place — one pass, usually a level or two, since
// the successor is rarely far in the future. A pop that finds the hole still
// open (the event pushed nothing here: a thread exit, a cross-shard send)
// closes it the classic way first. len discounts the hole; min under an open
// root is the smallest of the root's children, one tournament whose answer is
// remembered (child) so that the fill or the close starts from it — that is
// the test tryAdvance makes before almost every push. Pop order does not
// depend on any of this: (at, seq) is total.
//
// Sift-down picks the smallest of a full group of four children with a
// branch-free tournament over lessBit, eventLess's 0/1 form. The heap is
// shallow and cache-resident (192 entries are 6 KiB), so what a pop costs is
// not depth or misses but mispredicted compares: which of four siblings is
// earliest is close to a coin toss per level, and a two-field compare inside
// a pick-the-minimum loop is two such branches per sibling. The tournament
// turns them into index arithmetic and keeps one branch per level — "does ev
// stop here". lessBit is tested equal to eventLess on the adversarial pairs
// (eventq_test.go).
package sim

import "math/bits"

// eventQueue is a 4-ary min-heap ordered by (at, seq) whose root may be open.
type eventQueue struct {
	ev []event
	// open marks ev[0] as a hole: pop took the root and nothing has been
	// seated there yet. The next push fills it from the top; a pop that
	// comes first closes it with the last entry.
	open bool
	// child, while the root is open, is the index of the smallest of the
	// root's children once min has looked (0: not yet). Nothing moves under an
	// open root, so the push or pop that ends it starts from that answer.
	child int
}

// eventLess is the engine's total event order: virtual time, then the key
// (issue time, thread, kind). Pending keys are unique, so there are no
// incomparable pairs (the one exception, a parked wait's stale deadline read
// equal in every field to a live wake-up, is interchangeable with it).
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int {
	if q.open {
		return len(q.ev) - 1
	}
	return len(q.ev)
}

// min returns the earliest event without removing it (a pointer for reading,
// good until the next push or pop). It must not be called on an empty queue.
// (The closed-root case is small enough to inline; keep it so.)
func (q *eventQueue) min() *event {
	if q.open {
		return q.minUnderHole()
	}
	return &q.ev[0]
}

// minUnderHole is min under an open root: the smallest of the root's
// children, looked for once per hole. (Out of line so that min inlines.)
//
//go:noinline
func (q *eventQueue) minUnderHole() *event {
	if q.child == 0 {
		q.child = q.minChild(1)
	}
	return &q.ev[q.child]
}

// push inserts ev: into the open root and down to its heap position if pop
// left one, else at the bottom and up.
func (q *eventQueue) push(ev event) {
	if q.open {
		q.open = false
		q.siftDown(ev)
		return
	}
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(ev, q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = ev
}

// pop removes and returns the earliest event, leaving the root open. It must
// not be called on an empty queue. The backing slice is retained for reuse.
func (q *eventQueue) pop() event {
	if q.open {
		// Nothing was pushed since the last pop: close its hole with the
		// last entry before opening the next.
		n := len(q.ev) - 1
		last := q.ev[n]
		q.ev[n] = event{} // drop the *Thread reference for the GC
		q.ev = q.ev[:n]
		if q.child == n {
			q.child = 0 // the remembered child was that last entry
		}
		q.siftDown(last)
	}
	q.open = true
	return q.ev[0]
}

// lessBit is eventLess as 0 or 1, computed without a branch: the final
// borrow of the 128-bit subtraction (a.at : a.seq) - (b.at : b.seq), with
// at's sign bit flipped so that the unsigned borrow chain orders it as the
// signed value it is (a past-dated event must still sort first, so that it
// pops and trips the time-regression trap).
func lessBit(a, b *event) int {
	const signBit = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^signBit, uint64(b.at)^signBit, borrow)
	return int(borrow)
}

// minChild returns the index of the smallest entry of the sibling group that
// starts at first, which must exist. (siftDown's loop carries its own copy of
// the full-group case: the function is past the inlining budget, and a call
// per level shows.)
func (q *eventQueue) minChild(first int) int {
	n := len(q.ev)
	if first+4 <= n {
		c := (*[4]event)(q.ev[first : first+4])
		a := lessBit(&c[1], &c[0])
		b := 2 + lessBit(&c[3], &c[2])
		return first + a + (b-a)*lessBit(&c[b&3], &c[a&3])
	}
	best := first
	for c := first + 1; c < n; c++ {
		if eventLess(q.ev[c], q.ev[best]) {
			best = c
		}
	}
	return best
}

// siftDown seats ev in the hole at the root, moving the hole down past every
// child earlier than ev.
func (q *eventQueue) siftDown(ev event) {
	n := len(q.ev)
	i, best := 0, q.child
	q.child = 0
	for {
		if best == 0 {
			first := i<<2 + 1 // leftmost child
			if first+4 <= n {
				// A full group: two semifinals and a final, each a 0/1 index
				// step instead of a branch on which event is earlier.
				c := (*[4]event)(q.ev[first : first+4])
				a := lessBit(&c[1], &c[0])
				b := 2 + lessBit(&c[3], &c[2])
				best = first + a + (b-a)*lessBit(&c[b&3], &c[a&3])
			} else if first < n {
				best = q.minChild(first)
			} else {
				break
			}
		}
		if !eventLess(q.ev[best], ev) {
			break
		}
		q.ev[i] = q.ev[best]
		i, best = best, 0
	}
	q.ev[i] = ev
}
