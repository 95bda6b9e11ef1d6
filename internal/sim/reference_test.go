package sim

import (
	"container/heap"
	"testing"
)

// eventHeap is the pre-PR-6 container/heap event queue: the reference the
// production 4-ary heap (eventq.go) is checked against. It is test code
// only, and it spells the (at, seq) order out itself rather than calling
// eventLess, so a bug in the production comparison cannot hide in both.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// pending lists the queued events in heap order, the open root left out: the
// one place outside eventq.go that knows how the backing slice maps to them.
func (q *eventQueue) pending() []event {
	if q.open {
		return q.ev[1:]
	}
	return q.ev
}

// runReference is Run on the reference semantics: it drives e to completion
// with the same ProcessNextEvent loop while replaying every push and pop of
// the production queue through a container/heap mirror, and fails on the
// first pop that is not the mirror's minimum. The queue is popped once per
// ProcessNextEvent and pushed to in between, so
// the events that appeared since the last step are exactly the pushes. It
// returns the number of pops verified.
func runReference(t *testing.T, e *Engine, stopAt int64) (pops int) {
	t.Helper()
	var mirror eventHeap
	// By (at, seq): seq alone repeats across time (a thread's wake-ups issued at
	// one instant share it), but a thread has one pending event of each kind.
	type key struct {
		at  int64
		seq uint64
	}
	mirrored := map[key]bool{}
	e.SetHorizon(stopAt)
	for e.HasPendingEvents() {
		for _, ev := range e.tl.q.pending() {
			if k := (key{ev.at, ev.seq}); !mirrored[k] {
				mirrored[k] = true
				heap.Push(&mirror, ev)
			}
		}
		if e.tl.q.len() != mirror.Len() {
			t.Fatalf("after %d pops: production queue holds %d events, reference %d", pops, e.tl.q.len(), mirror.Len())
		}
		want := heap.Pop(&mirror).(event)
		delete(mirrored, key{want.at, want.seq})
		if got := *e.tl.q.min(); got != want {
			t.Fatalf("pop %d diverged: production (at=%d seq=%d), reference (at=%d seq=%d)",
				pops, got.at, got.seq, want.at, want.seq)
		}
		e.ProcessNextEvent()
		pops++
	}
	for _, th := range e.threads {
		if !th.exited {
			t.Fatalf("thread %d blocked forever under the reference loop", th.id)
		}
	}
	return pops
}

// TestReferenceReplayContended runs the contended RMW workload on the
// production Run (typed heap) and under runReference (the same loop,
// checked pop by pop against container/heap order) and asserts bit-identical
// outcomes: same final clock, same event count, same memory effects.
func TestReferenceReplayContended(t *testing.T) {
	typed, readTyped := contendedEngine()
	ref, readRef := contendedEngine()
	typed.Run(300_000)
	if pops := runReference(t, ref, 300_000); pops == 0 {
		t.Fatal("reference replay verified no pops")
	}
	if typed.Now() != ref.Now() {
		t.Errorf("final clock diverged: typed %d, reference %d", typed.Now(), ref.Now())
	}
	if typed.Events() != ref.Events() {
		t.Errorf("event count diverged: typed %d, reference %d", typed.Events(), ref.Events())
	}
	if g, w := readTyped(), readRef(); g != w {
		t.Errorf("memory effects diverged: typed %d, reference %d", g, w)
	}
}

// TestReferenceReplaySharded verifies every pop of the all-verb-paths
// workload (torn CAS on CX3 included) against container/heap, and both
// executors against the replay: same clock, same event count, same memory
// image, same NIC stats at 1 and 4 workers.
func TestReferenceReplaySharded(t *testing.T) {
	const horizon = 300_000
	ref, words := shardedWorkload(4, 3)
	pops := runReference(t, ref, horizon)
	t.Logf("verified %d pops against container/heap", pops)
	want := fingerprint(ref, words)
	if got := runMode(t, 4, 3, horizon); got != want {
		t.Errorf("serial Run diverged from the reference replay:\n reference: %s\n serial:    %s", want, got)
	}
	if got := runMode(t, 4, 3, horizon, WithShards(4)); got != want {
		t.Errorf("windowed Run diverged from the reference replay:\n reference: %s\n windowed:  %s", want, got)
	}
}
