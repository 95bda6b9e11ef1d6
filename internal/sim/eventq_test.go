package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
)

// TestEventQueueMatchesOracle drives 10k random (at, seq) schedules through
// the typed 4-ary heap and the container/heap reference (reference_test.go)
// with interleaved pops and asserts identical pop order. (at, seq) is a total order, so any
// divergence is a queue bug, not tie-break slack.
func TestEventQueueMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var q eventQueue
	var o eventHeap
	var seq uint64
	pending := 0
	pushed := 0
	for pushed < 10_000 || pending > 0 {
		// Bias toward pushes until the target, then drain.
		push := pushed < 10_000 && (pending == 0 || rng.Intn(3) != 0)
		if push {
			seq++
			// Clustered times force plenty of exact ties broken by seq.
			ev := event{at: int64(rng.Intn(64)), seq: seq}
			q.push(ev)
			heap.Push(&o, ev)
			pushed++
			pending++
			continue
		}
		got, want := q.pop(), heap.Pop(&o).(event)
		if got != want {
			t.Fatalf("pop %d diverged: typed (at=%d seq=%d), oracle (at=%d seq=%d)",
				pushed-pending, got.at, got.seq, want.at, want.seq)
		}
		pending--
	}
	if q.len() != 0 || o.Len() != 0 {
		t.Fatalf("queues not drained: typed %d, oracle %d", q.len(), o.Len())
	}
}

// TestEventQueueAscendingPops pins the heap property directly: any push
// mixture pops in nondecreasing (at, seq) order.
func TestEventQueueAscendingPops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for i := 0; i < 4096; i++ {
		q.push(event{at: int64(rng.Intn(1000)), seq: uint64(i + 1)})
	}
	prev := event{at: -1}
	for q.len() > 0 {
		ev := q.pop()
		if eventLess(ev, prev) {
			t.Fatalf("pop order regressed: (at=%d seq=%d) after (at=%d seq=%d)",
				ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
	}
}

// contendedEngine builds a 2-node, 4-thread engine whose threads hammer one
// word with remote RMW retry loops — an event-dense schedule with constant
// cross-thread handoffs.
func contendedEngine(opts ...Option) (*Engine, func() uint64) {
	e := New(2, 1024, model.CX3(), 99, opts...)
	w := e.Space().AllocLine(0)
	for i := 0; i < 4; i++ {
		node := i % 2
		e.Spawn(node, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				for {
					old := ctx.RRead(w)
					if ctx.RCAS(w, old, old+1) == old {
						break
					}
				}
				ctx.Work(50 * time.Nanosecond)
			}
		})
	}
	read := func() uint64 {
		var v uint64
		e.Spawn(0, func(ctx api.Ctx) { v = ctx.Read(w) })
		e.Run(1 << 41)
		return v
	}
	return e, read
}

// TestMaxEventsGuardDirect is TestMaxEventsGuard's cross-thread variant:
// the budget trip happens on a thread goroutine mid-handoff, and the panic
// must still surface on the Run caller's goroutine.
func TestMaxEventsGuardDirect(t *testing.T) {
	e, _ := contendedEngine(WithMaxEvents(500))
	defer func() {
		if recover() == nil {
			t.Fatal("runaway contended simulation did not panic on the caller")
		}
	}()
	e.Run(1 << 40)
}
