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
// Ordering is the engine's total event order — (at, seq) with seq unique —
// so pop order is independent of heap shape and bit-identical to the
// standard-library heap the tests replay it against (reference_test.go).
// eventLess is that order's definition.
//
// Sift-down picks the smallest of a full group of four children with a
// branch-free tournament over lessBit, eventLess's 0/1 form. The heap is
// shallow and cache-resident (192 entries are 6 KiB), so what a pop costs is
// not depth or misses but mispredicted compares: which of four siblings is
// earliest is close to a coin toss per level, and a two-field compare inside
// a pick-the-minimum loop is two such branches per sibling. The tournament
// turns them into index arithmetic and keeps one branch per level — "does ev
// stop here" — which is almost always "no". lessBit is tested equal to
// eventLess on the adversarial pairs (eventq_test.go).
package sim

import "math/bits"

// eventQueue is a 4-ary min-heap ordered by (at, seq).
type eventQueue struct {
	ev []event
}

// eventLess is the engine's total event order: virtual time, then insertion
// sequence. seq is unique, so there are no incomparable pairs.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.ev) }

// min returns the earliest event without removing it. It must not be called
// on an empty queue.
func (q *eventQueue) min() event { return q.ev[0] }

// push inserts ev, sifting it up to its heap position.
func (q *eventQueue) push(ev event) {
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

// pop removes and returns the earliest event. It must not be called on an
// empty queue. The backing slice is retained for reuse.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // drop the *Thread reference for the GC
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
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

// siftDown places ev (logically at the root) at its heap position.
func (q *eventQueue) siftDown(ev event) {
	n := len(q.ev)
	i := 0
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		// Pick the smallest of up to four children.
		best := first
		if first+4 <= n {
			// A full group: two semifinals and a final, each a 0/1 index
			// step instead of a branch on which event is earlier.
			c := (*[4]event)(q.ev[first : first+4])
			a := lessBit(&c[1], &c[0])
			b := 2 + lessBit(&c[3], &c[2])
			best += a + (b-a)*lessBit(&c[b&3], &c[a&3])
		} else {
			for c := first + 1; c < n; c++ {
				if eventLess(q.ev[c], q.ev[best]) {
					best = c
				}
			}
		}
		if !eventLess(q.ev[best], ev) {
			break
		}
		q.ev[i] = q.ev[best]
		i = best
	}
	q.ev[i] = ev
}
