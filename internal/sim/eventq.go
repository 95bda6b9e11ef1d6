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
package sim

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
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(q.ev[c], q.ev[best]) {
				best = c
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
