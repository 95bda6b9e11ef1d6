package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// take is one item a waiter took off its node's queue: which, by whom, when.
type take struct {
	item, th int
	at       int64
}

// signalWorld builds a seeded cluster of nodes whose waiters take items off a
// Go-side queue of their node, looking at it every period ns in a WorkLoop
// (the lock service's idle workers), do some Work and a Write per item, and
// look again; a producer per node admits items at random gaps in a WorkLoop of
// its own and raises the queue's signal per item. Node 0 has no producer: its
// waiters wait for the horizon. The last node's busy thread works on for a
// while past the horizon, so that the windows go on past it while node 0 has
// nothing queued. With parked set the waiters wait on their node's signal; a
// world built without it is the written-out loop. Every take is logged.
func signalWorld(seed int64, parked bool, opts ...Option) (e *Engine, horizon int64, takes [][]take) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(3)
	e = New(nodes, 1<<12, model.CX3(), seed, append([]Option{WithMaxEvents(1 << 22)}, opts...)...)
	horizon = 20_000 + setup.Int63n(30_000)
	period := time.Duration(50 + setup.Intn(700))
	takes = make([][]take, nodes)
	for n := 0; n < nodes; n++ {
		node, queue, next := n, new(int), new(int)
		word := e.Space().AllocLine(n)
		sig := e.NewSignal(n)
		for k, waiters := 0, 1+setup.Intn(4); k < waiters; k++ {
			rng := rand.New(rand.NewSource(seed<<8 + int64(n*8+k)))
			th := e.Spawn(n, func(ctx api.Ctx) {
				idle := func(_ int64, stopped bool) (time.Duration, bool) { return period, !stopped && *queue == 0 }
				for {
					ctx.WorkLoop(idle)
					if ctx.Stopped() {
						return
					}
					*queue--
					*next++
					takes[node] = append(takes[node], take{*next, ctx.ThreadID(), ctx.Now()})
					ctx.Work(time.Duration(rng.Intn(1500)))
					ctx.Write(word, uint64(*next))
				}
			})
			if parked {
				sig.Wait(th)
			}
		}
		if n == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed<<8 + 100 + int64(n)))
		mean := 200 + rng.Intn(2000)
		e.Spawn(n, func(ctx api.Ctx) {
			started := false
			ctx.WorkLoop(func(_ int64, stopped bool) (time.Duration, bool) {
				if stopped {
					return 0, false
				}
				if started {
					for i, burst := 0, 1+rng.Intn(2); i < burst; i++ {
						*queue++
						sig.Raise()
					}
				}
				started = true
				return time.Duration(1 + rng.Intn(2*mean)), true
			})
		})
	}
	e.Spawn(nodes-1, func(ctx api.Ctx) {
		for ctx.Now() < horizon+20_000 {
			ctx.Work(time.Duration(300))
		}
	})
	return e, horizon, takes
}

// TestSignalWaitMatchesLoop: WorkLoop waits parked on a Signal against the
// written-out loop — every item taken by the same waiter at the same instant,
// the same clock and Events — on the serial executor and on one, two and four
// windowed workers, over worlds where items queue up and where waiters wait
// for the horizon alone while another node runs past it; with fewer events
// dispatched.
func TestSignalWaitMatchesLoop(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	var taken int
	var looped, dispatched uint64
	for seed := int64(1); seed <= 40; seed++ {
		want, horizon, wantTakes := signalWorld(seed, false)
		want.Run(horizon)
		for _, opts := range [][]Option{nil, {WithShards(1)}, {WithShards(2)}, {WithShards(4)}} {
			got, _, gotTakes := signalWorld(seed, true, opts...)
			got.Run(horizon)
			if !reflect.DeepEqual(wantTakes, gotTakes) {
				t.Fatalf("seed %d, %d workers: items were taken differently", seed, len(opts))
			}
			sameOutcome(t, want, got)
			if g, w := got.Events()-got.Credited(), want.Events()-want.Credited(); g >= w {
				t.Fatalf("seed %d: the parked waits dispatched %d events, the loops %d", seed, g, w)
			}
			dispatched += got.Events() - got.Credited()
		}
		looped += 4 * (want.Events() - want.Credited())
		for _, ts := range wantTakes {
			taken += len(ts)
		}
	}
	t.Logf("%d items taken; the loops dispatched %d events, the parked waits %d", taken, looped, dispatched)
	if taken < 2000 {
		t.Fatalf("%d items taken: too few to mean anything", taken)
	}
}

// TestSignalContract: what Signal refuses, each as one line — a waiter of
// another node, a Raise outside a WorkLoop turn (whether or not a waiter is
// parked), a waiting loop that changes
// its Work or goes on past the stop (raised in the thread, as WorkLoop's
// panics are), a RequestStop while a waiter is parked — and the trap of a
// waiter nothing is left to wake.
func TestSignalContract(t *testing.T) {
	e := New(2, 1024, model.CX3(), 1)
	th := e.Spawn(1, func(api.Ctx) {})
	if r := recovered(func() { e.NewSignal(0).Wait(th) }); r != "sim: thread 0 on node 1 waits on a Signal of node 0" {
		t.Errorf("a waiter of another node: %v", r)
	}
	if r := recovered(func() { (*Signal)(nil).Raise() }); r != nil {
		t.Errorf("a Raise on a nil signal: %v", r)
	}

	loopPanics := []struct {
		name string
		loop func(sig *Signal) func(int64, bool) (time.Duration, bool)
		want string
	}{
		{"raise outside a turn", func(sig *Signal) func(int64, bool) (time.Duration, bool) {
			return func(int64, bool) (time.Duration, bool) { sig.Raise(); return 0, false }
		}, "sim: Signal.Raise outside a turn of a WorkLoop of its node (in the function passed to WorkLoop)"},
		{"a Work that changes", func(*Signal) func(int64, bool) (time.Duration, bool) {
			d := time.Duration(100)
			return func(_ int64, stopped bool) (time.Duration, bool) { d++; return d, !stopped }
		}, "sim: a WorkLoop waiting on a Signal changed its Work from 101ns to 102ns (in the function passed to WorkLoop)"},
		{"on past the stop", func(*Signal) func(int64, bool) (time.Duration, bool) {
			return func(int64, bool) (time.Duration, bool) { return 100, true }
		}, "sim: a WorkLoop waiting on a Signal went on past the stop (in the function passed to WorkLoop)"},
	}
	for _, c := range loopPanics {
		for _, d := range trapDrivers {
			e := New(2, 1024, model.CX3(), 1, d.opts...)
			sig := e.NewSignal(0)
			var got any
			th := e.Spawn(0, func(ctx api.Ctx) {
				defer func() { got = recover() }()
				ctx.WorkLoop(c.loop(sig))
			})
			sig.Wait(th)
			turns := 0
			e.Spawn(0, func(ctx api.Ctx) { // raises once, on its second turn
				ctx.WorkLoop(func(int64, bool) (time.Duration, bool) {
					if turns++; turns == 2 {
						sig.Raise()
					}
					return 300, turns < 2
				})
			})
			e.Spawn(1, func(ctx api.Ctx) { ctx.Work(5_000) })
			e.Run(1_000)
			if got != c.want {
				t.Errorf("%s, %s: the thread panicked with %v, want %q", c.name, d.name, got, c.want)
			}
		}
	}

	e = New(1, 1024, model.CX3(), 1)
	sig := e.NewSignal(0)
	sig.Wait(e.Spawn(0, func(ctx api.Ctx) {
		ctx.WorkLoop(func(_ int64, stopped bool) (time.Duration, bool) { return 100, !stopped })
	}))
	e.Spawn(0, func(ctx api.Ctx) {
		ctx.Work(1_000)
		e.RequestStop()
	})
	if r := recovered(func() { e.Run(1 << 40) }); !strings.Contains(fmt.Sprint(r), "sim: RequestStop while thread 0 is parked in a WorkLoop on a Signal") {
		t.Errorf("a RequestStop with a waiter parked: %v", r)
	}

	e = New(1, 1024, model.CX3(), 1)
	sig = e.NewSignal(0)
	sig.Wait(e.Spawn(0, func(ctx api.Ctx) {
		ctx.WorkLoop(func(_ int64, stopped bool) (time.Duration, bool) { return 100, !stopped })
	}))
	if r := recovered(func() { e.Run(1 << 50) }); !strings.Contains(fmt.Sprint(r), "sim: thread 0 waits forever in WorkLoop on a Signal of node 0") {
		t.Errorf("a waiter with no horizon and nothing to wake it: %v", r)
	}
}
