package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
)

// TestEventQueueMatchesOracle drives random (at, seq) schedules through the
// typed 4-ary heap and the container/heap reference (reference_test.go)
// and asserts identical pop order, min and len. (at, seq) is a total order,
// so any divergence is a queue bug, not tie-break slack. Besides the
// 10k-event random walk, the queue is held at every size in 1..9 and
// 4k..4k+4 (k = 4, 16, 48): with n entries a sift-down scans a full group of
// four where 4i+5 <= n and a partial one at the seam, so neighbouring sizes
// cross from the tournament to the loop and back, and the small ones put the
// last entry among the root's children. At each size it runs op scripts that
// cross every state of the open root — filled by the next push, closed by the
// next pop, looked under by min (whose answer the fill or the close then
// starts from) and len, emptied, refilled from empty, and scattered onto a
// second queue as runWindowed does. seq carries a shard tag in its high bits
// as the windowed executor's does, node 128 and up setting bit 63.
func TestEventQueueMatchesOracle(t *testing.T) {
	// o pops, u pushes, m and l compare min and len; every script is balanced.
	// D drains to empty and refills; S scatters onto the spare queue, which
	// becomes the queue (the old one is left with its root open, and takes
	// the next scatter).
	scripts := []string{
		"ou", "oouu", "ouuo", "omlu", "omu", "olu", "omolmuu", "omomomuuu",
		"oolmuu", "ouomuou", "D", "ou", "S", "omlu", "oouu", "S", "D", "S", "mlou",
	}
	holds := []int{0} // 0: no hold, the 10k random walk
	for n := 1; n <= 9; n++ {
		holds = append(holds, n)
	}
	for _, k := range []int{4, 16, 48} {
		for d := 0; d <= 4; d++ {
			holds = append(holds, 4*k+d)
		}
	}
	for _, hold := range holds {
		rng := rand.New(rand.NewSource(20260808 + int64(hold)))
		q, spare := new(eventQueue), new(eventQueue)
		var o eventHeap
		var ctr uint64
		pops := 0
		push := func() {
			ctr++
			shard := uint64(rng.Intn(4)) * 85 // 0, 85, 170, 255
			// Clustered times force plenty of exact ties broken by seq.
			ev := event{at: int64(rng.Intn(64)), seq: shard<<seqShardShift | ctr}
			q.push(ev)
			heap.Push(&o, ev)
		}
		pop := func(from *eventQueue) event {
			got, want := from.pop(), heap.Pop(&o).(event)
			if got != want {
				t.Fatalf("hold %d: pop %d diverged: typed (at=%d seq=%d), oracle (at=%d seq=%d)",
					hold, pops, got.at, got.seq, want.at, want.seq)
			}
			pops++
			return got
		}
		peek := func(min, length bool) {
			if length && q.len() != o.Len() {
				t.Fatalf("hold %d: after %d pops len() = %d, oracle holds %d", hold, pops, q.len(), o.Len())
			}
			if min && o.Len() > 0 && *q.min() != o[0] {
				t.Fatalf("hold %d: after %d pops min() = (at=%d seq=%d), oracle (at=%d seq=%d)",
					hold, pops, q.min().at, q.min().seq, o[0].at, o[0].seq)
			}
		}
		if hold == 0 {
			for pushed := 0; pushed < 10_000 || o.Len() > 0; {
				// Bias toward pushes until the target, then drain; look under
				// the root after a third of the ops.
				if pushed < 10_000 && (o.Len() == 0 || rng.Intn(3) != 0) {
					push()
					pushed++
				} else {
					pop(q)
				}
				if rng.Intn(3) == 0 {
					peek(rng.Intn(2) == 0, rng.Intn(2) == 0)
				}
			}
			peek(false, true)
			continue
		}
		for o.Len() < hold {
			push()
		}
		for round := 0; round < 12; round++ {
			for _, script := range scripts {
				if hold < strings.Count(script, "o") {
					continue // would pop an empty queue
				}
				for _, op := range script {
					switch op {
					case 'o':
						pop(q)
					case 'u':
						push()
					case 'm':
						peek(true, false)
					case 'l':
						peek(false, true)
					case 'D':
						for o.Len() > 0 {
							pop(q)
						}
						peek(false, true)
						for o.Len() < hold {
							push()
						}
					case 'S':
						var moved []event
						for q.len() > 0 {
							ev := q.pop()
							spare.push(ev)
							moved = append(moved, ev)
						}
						for i := 1; i < len(moved); i++ {
							if !eventLess(moved[i-1], moved[i]) {
								t.Fatalf("hold %d: scatter popped (at=%d seq=%d) before (at=%d seq=%d)", hold,
									moved[i-1].at, moved[i-1].seq, moved[i].at, moved[i].seq)
							}
						}
						q, spare = spare, q
					}
				}
				if o.Len() != hold {
					t.Fatalf("script %q is not balanced", script)
				}
				peek(false, true)
			}
		}
		for o.Len() > 0 {
			pop(q)
		}
		peek(false, true)
	}
}

// TestLessBitEqualsEventLess holds the branch-free comparison to its
// definition on the pairs where an unsigned borrow chain could go wrong:
// equal at (seq decides), seq with shard bits up to and past bit 63, at
// negative (a past-dated event must sort first so that it pops and trips
// the time-regression trap), zero and MaxInt64.
func TestLessBitEqualsEventLess(t *testing.T) {
	ats := []int64{math.MinInt64, -1 << 40, -1, 0, 1, 780, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, 1<<seqShardShift - 1, 1 << seqShardShift, 1<<seqShardShift | 1,
		127<<seqShardShift | 5, 1 << 63, 128<<seqShardShift | 5, 255<<seqShardShift | 1, math.MaxUint64}
	var evs []event
	for _, at := range ats {
		for _, seq := range seqs {
			evs = append(evs, event{at: at, seq: seq})
		}
	}
	for i := range evs {
		for j := range evs {
			a, b := evs[i], evs[j]
			want := 0
			if eventLess(a, b) {
				want = 1
			}
			if got := lessBit(&a, &b); got != want {
				t.Fatalf("lessBit((at=%d seq=%#x), (at=%d seq=%#x)) = %d, eventLess says %d",
					a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}

// TestPastDatedEventPopsFirst: behind a full group of future events, an
// event dated before the clock is still the next pop — which is what lets
// ProcessNextEvent see it and trap.
func TestPastDatedEventPopsFirst(t *testing.T) {
	var q eventQueue
	for i := 0; i < 21; i++ {
		q.push(event{at: int64(1000 + i), seq: uint64(i + 1)})
	}
	q.pop() // re-seat the last entry through full groups
	q.push(event{at: -5, seq: 3<<seqShardShift | 99})
	if got := q.pop(); got.at != -5 {
		t.Fatalf("popped at=%d before the past-dated event", got.at)
	}
	// Sift a large last entry down past a negative child.
	q.push(event{at: -7, seq: 200<<seqShardShift | 1})
	q.push(event{at: -6, seq: 100})
	if a, b := q.pop(), q.pop(); a.at != -7 || b.at != -6 {
		t.Fatalf("negative times popped as %d, %d; want -7, -6", a.at, b.at)
	}
}

// BenchmarkEventQueueHold is the event-queue layer case: the classic hold
// model at the queue depths the engine runs at (16 threads, the 192 of a
// fig5 config, the ~600 pending events of the open-loop service). One op
// pops the minimum and pushes it back at its time plus a delay drawn from
// the CX3 cost mix — mostly local accesses and spin polls, some NIC and
// wire hops — with a fresh seq, as a simulated thread's next block does.
func BenchmarkEventQueueHold(b *testing.B) {
	p := model.CX3()
	mix := []int64{
		p.LocalReadNS, p.LocalReadNS, p.LocalWriteNS, p.LocalCASNS, p.FenceNS,
		p.SpinPollMinNS, 2 * p.SpinPollMinNS, 8 * p.SpinPollMinNS, p.SpinPollMaxNS,
		p.NICServiceNS, p.NICServiceNS, p.TornGapNS, p.LoopbackWireNS, p.RemoteWireNS, p.RemoteWireNS,
		p.QPCMissPenaltyNS,
	}
	for _, depth := range []int{16, 192, 600} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(depth)))
			delays := make([]int64, 1<<12)
			for i := range delays {
				delays[i] = mix[rng.Intn(len(mix))]
			}
			var q eventQueue
			var seq uint64
			for i := 0; i < depth; i++ {
				seq++
				q.push(event{at: delays[i], seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				ev.at += delays[i&(len(delays)-1)]
				ev.seq = seq
				q.push(ev)
			}
		})
	}
	// The same model two events at a time — pop, pop, push, push — which is
	// what the queue sees when an event pushes nothing (a thread exit, a
	// cross-shard send, a torn write half) or the executor looks at the next
	// head first: the second pop closes the first one's hole with the last
	// entry, the classic way. One op is still one hold.
	for _, depth := range []int{16, 192, 600} {
		b.Run("unfused/"+strconv.Itoa(depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(depth)))
			delays := make([]int64, 1<<12)
			for i := range delays {
				delays[i] = mix[rng.Intn(len(mix))]
			}
			var q eventQueue
			var seq uint64
			for i := 0; i < depth; i++ {
				seq++
				q.push(event{at: delays[i], seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				ev1, ev2 := q.pop(), q.pop()
				seq += 2
				ev1.at += delays[i&(len(delays)-1)]
				ev1.seq = seq - 1
				ev2.at += delays[(i+1)&(len(delays)-1)]
				ev2.seq = seq
				q.push(ev1)
				q.push(ev2)
			}
		})
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
