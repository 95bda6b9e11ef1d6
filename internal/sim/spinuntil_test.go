package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/slots"
)

// doneFunc is what api.Ctx.SpinUntil takes.
type doneFunc = func(v uint64, now int64) bool

// untilFn is one way to wait for a local word to satisfy a doneFunc: the
// api.Ctx method under test, or the loop it is defined as.
type untilFn func(ctx api.Ctx, p ptr.Ptr, iter int, done doneFunc) (uint64, int)

func untilMethod(ctx api.Ctx, p ptr.Ptr, iter int, done doneFunc) (uint64, int) {
	return ctx.SpinUntil(p, iter, done)
}

// untilLoop is api.Ctx.SpinUntil's definition written out: the reference the
// engine's executor-side stepping is compared against.
func untilLoop(ctx api.Ctx, p ptr.Ptr, iter int, done doneFunc) (uint64, int) {
	for {
		v := ctx.Read(p)
		if done(v, ctx.Now()) {
			return v, iter
		}
		ctx.Pause(iter)
		iter++
	}
}

// pollSeen is one call of a waiter's done — the value and time it was handed
// and what it answered — or (iter >= 0) one return of the wait, with the iter
// that came out and the time the caller was running again.
type pollSeen struct {
	v    uint64
	now  int64
	done bool
	iter int
}

// untilWaiter waits the way the rw locks do: the word's low two bits are its
// state (0 granted, 3 promoted to head: resolved; 1 waiting, where alone the
// deadline applies; 2 claimed, committed past any deadline), a wait is over at
// a resolved value the waiter has not consumed yet, at the writer's last value,
// or in state 1 past the deadline. The deadline travels in the struct and done
// is a method value bound once, as api.Ctx asks.
type untilWaiter struct {
	cur, last uint64
	deadline  int64
	log       []pollSeen
	done      doneFunc
	// What the waits went through, for the test to know it tested something:
	// failed polls, deadline exits, read-first re-entries (no pause, back-off
	// kept) and pause-first re-entries (iter carried into the next call).
	failed, expired, unpaused, carried int
}

func (w *untilWaiter) resolved(v uint64) bool {
	return v == w.last || v > w.cur && (v&3 == 0 || v&3 == 3)
}

func (w *untilWaiter) poll(v uint64, now int64) bool {
	done := w.resolved(v) || v&3 == 1 && w.deadline > 0 && now >= w.deadline
	w.log = append(w.log, pollSeen{v, now, done, -1})
	if !done {
		w.failed++
	}
	return done
}

// untilWorld builds a seeded cluster of untilWaiters on their own nodes'
// words, one writer per word (same node with Write, or another node with
// RWrite) bumping it through 1..last, and a noise thread per node that keeps
// the queue populated so the waiters' blocks take both of tryAdvance's paths.
// A wait takes one of the two shapes the lock code has: read-first, re-entered
// after a deadline exit with no pause and the back-off kept (spinDescTimed
// after a lost abandon-CAS), and pause-first with iter carried from one
// re-entry to the next (the head loops and the single-word locks). Deadlines
// are absent, mid-wait or already passed. Waiters leave between waits once the
// run has stopped — the horizon, or with stopper set a RequestStop from node
// 0 — writers always finish. Two worlds built from one seed differ only in
// until.
func untilWorld(seed int64, until untilFn, stopper bool, opts ...Option) (e *Engine, words []ptr.Ptr, horizon int64, waiters []*untilWaiter) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(3)
	e = New(nodes, 1<<12, model.CX3(), seed, append([]Option{WithMaxEvents(1 << 20)}, opts...)...)
	horizon = 12_000 + setup.Int63n(12_000)
	if stopper {
		stopAt := time.Duration(horizon)
		horizon = 1 << 40
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.Work(stopAt)
			e.RequestStop()
		})
	}
	for n := 0; n < nodes; n++ {
		for k, count := 0, 1+setup.Intn(3); k < count; k++ {
			node, word, id := n, e.Space().AllocLine(n), int64(len(waiters))
			words = append(words, word)
			w := &untilWaiter{last: uint64(6 + setup.Intn(14))}
			w.done = w.poll
			waiters = append(waiters, w)
			e.Spawn(node, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + id))
				for w.cur < w.last && !ctx.Stopped() {
					w.deadline = 0
					switch rng.Intn(4) {
					case 0:
						w.deadline = ctx.Now() + 1 + rng.Int63n(3000)
					case 1:
						w.deadline = ctx.Now()/2 + 1 // already passed when the first poll lands
					}
					var v uint64
					iter := 0
					if rng.Intn(2) == 0 { // read-first
						for {
							v, iter = until(ctx, word, iter, w.done)
							w.log = append(w.log, pollSeen{v, ctx.Now(), true, iter})
							if w.resolved(v) {
								break
							}
							w.deadline = 0 // the retraction lost: committed, back-off kept
							w.expired++
							w.unpaused++
						}
					} else { // pause-first
						for v = ctx.Read(word); !w.resolved(v); {
							if w.deadline > 0 && ctx.Now() >= w.deadline {
								w.deadline = 0
								w.expired++
							}
							if iter > 0 {
								w.carried++
							}
							ctx.Pause(iter)
							v, iter = until(ctx, word, iter+1, w.done)
							w.log = append(w.log, pollSeen{v, ctx.Now(), true, iter})
						}
					}
					w.cur = v
					ctx.Work(time.Duration(rng.Intn(300)))
				}
			})
			from := node
			if setup.Intn(2) == 0 {
				from = (node + 1) % nodes
			}
			e.Spawn(from, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + 100 + id))
				for v := uint64(1); v <= w.last; v++ {
					ctx.Work(time.Duration(1 + rng.Intn(1800)))
					if from == node {
						ctx.Write(word, v)
					} else {
						ctx.RWrite(word, v)
					}
				}
			})
		}
		noise, scratch := n, e.Space().AllocLine(n)
		e.Spawn(noise, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<8 + 200 + int64(noise)))
			for !ctx.Stopped() {
				ctx.Work(time.Duration(rng.Intn(400)))
				ctx.Read(scratch)
			}
		})
	}
	return e, words, horizon, waiters
}

// TestSpinUntilMatchesLoop: SpinUntil against the literal loop on twin engines
// — the clock, Events, the memory image and NIC stats, every event popped
// (time, seq, thread, kind), every (v, now) handed to every done with its
// answer, every returned value and iterOut — under the serial executor with the
// horizon and with a RequestStop landing mid-wait, the windowed executor at two
// and four workers, and the access audit; with fewer coroutine resumes.
func TestSpinUntilMatchesLoop(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	drivers := []struct {
		name    string
		opts    []Option
		stopper bool
	}{
		{"serial", nil, false},
		{"request-stop", nil, true},
		{"windowed-2", []Option{WithShards(2)}, false},
		{"windowed-4", []Option{WithShards(4)}, false},
		{"audit-windowed", []Option{WithAccessAudit(), WithShards(2)}, false},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			failed, expired, unpaused, carried := 0, 0, 0, 0
			for seed := int64(1); seed <= 80; seed++ {
				written, words, horizon, want := untilWorld(seed, untilLoop, d.stopper, d.opts...)
				method, _, _, got := untilWorld(seed, untilMethod, d.stopper, d.opts...)
				wantPops := drivePops(written, horizon)
				gotPops := drivePops(method, horizon)
				if w, g := fingerprint(written, words), fingerprint(method, words); w != g {
					t.Fatalf("seed %d: runs ended differently\nloop:      %s\nSpinUntil: %s", seed, w, g)
				}
				for i := range want {
					if !reflect.DeepEqual(want[i].log, got[i].log) {
						t.Fatalf("seed %d waiter %d: done was asked, or the wait returned, differently\nloop:      %v\nSpinUntil: %v", seed, i, want[i].log, got[i].log)
					}
				}
				if !reflect.DeepEqual(wantPops, gotPops) {
					t.Fatalf("seed %d: the engines popped different events", seed)
				}
				if w, g := written.Resumes(), method.Resumes(); g >= w {
					t.Fatalf("seed %d: SpinUntil resumed coroutines %d times, the loop %d", seed, g, w)
				}
				for _, w := range got {
					failed, expired, unpaused, carried = failed+w.failed, expired+w.expired, unpaused+w.unpaused, carried+w.carried
				}
			}
			if failed < 2000 || expired < 100 || unpaused < 40 || carried < 40 {
				t.Fatalf("the worlds ran %d failed polls, %d deadline exits, %d unpaused re-entries and %d re-entries with a carried iter: too few to mean anything", failed, expired, unpaused, carried)
			}
		})
	}
}

// TestSpinUntilPauseFirstCarriesIter pins the pause-first form on a schedule
// worked out by hand: Uniform(10) with 12/24/48 ns back-offs, a wait entered
// as Pause(0); SpinUntil(p, 1, done) whose done gives up at t >= 100, then
// re-entered as Pause(iter); SpinUntil(p, iter+1, done). The polls land where
// `Pause(i); i++; v = Read(p)` puts them, the back-off never restarts, and
// iterOut is the count that loop would have reached.
func TestSpinUntilPauseFirstCarriesIter(t *testing.T) {
	p := model.Uniform(10)
	p.SpinPollMinNS, p.SpinPollMaxNS = 12, 48
	for name, until := range map[string]untilFn{"loop": untilLoop, "method": untilMethod} {
		e := New(1, 1024, p, 1)
		w := e.Space().AllocLine(0)
		var polls []int64
		var iters []int
		limit := int64(100)
		done := func(v uint64, now int64) bool {
			polls = append(polls, now)
			return v != 0 || now >= limit
		}
		e.Spawn(0, func(ctx api.Ctx) {
			v, iter := ctx.Read(w), 0 // t=10
			for v == 0 {
				ctx.Pause(iter)
				v, iter = until(ctx, w, iter+1, done)
				iters = append(iters, iter)
				limit += 150
			}
		})
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.Work(300)
			ctx.Write(w, 7) // lands at t=310
		})
		e.Run(1 << 40)
		// Pauses of 12, 24, 48, 48, ... each followed by a 10 ns read.
		wantPolls := []int64{32, 66, 124, 182, 240, 298, 356}
		wantIters := []int{3, 6, 7}
		if !reflect.DeepEqual(polls, wantPolls) || !reflect.DeepEqual(iters, wantIters) {
			t.Errorf("%s: polls at %v with iterOut %v, want %v and %v", name, polls, iters, wantPolls, wantIters)
		}
	}
}

// TestSpinUntilStaysInExecutor is the test that the mechanism is taken at all:
// a wait of a thousand failed polls, every one of them a scheduled event (the
// busy thread keeps the queue ahead of each block), switches into the waiter's
// coroutine twice — to start it and to end the wait — and once more when it is
// entered pause-first, for the Pause ahead of it is posted and the call simply
// waits behind it. A SpinUntil that fell back to the loop would pass every
// equivalence test above and fail here with a resume per event.
func TestSpinUntilStaysInExecutor(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			for _, pauseFirst := range []bool{false, true} {
				world := func(until untilFn) (e *Engine, waiter *Thread, polls, iterOut int) {
					e = New(2, 1024, model.CX3(), 1, d.opts...)
					w := e.Space().AllocLine(0)
					done := func(v uint64, _ int64) bool {
						polls++
						return v != 0
					}
					waiter = e.Spawn(0, func(ctx api.Ctx) {
						iter := 0
						if pauseFirst {
							ctx.Pause(0)
							iter = 1
						}
						_, iterOut = until(ctx, w, iter, done)
					})
					e.Spawn(0, func(ctx api.Ctx) {
						for ctx.Now() < 500_000 {
							ctx.Work(5)
						}
						ctx.Write(w, 1)
					})
					d.drive(e)
					return e, waiter, polls, iterOut
				}
				loop, slow, polls, wantIter := world(untilLoop)
				if polls < 1000 || slow.resumes < 1000 {
					t.Fatalf("the written-out wait took %d polls and %d resumes; the test needs 1000 scheduled polls", polls, slow.resumes)
				}
				method, fast, gotPolls, gotIter := world(untilMethod)
				sameOutcome(t, loop, method)
				if gotPolls != polls || gotIter != wantIter {
					t.Errorf("pauseFirst=%v: SpinUntil asked done %d times and returned iter %d, the loop %d and %d", pauseFirst, gotPolls, gotIter, polls, wantIter)
				}
				if fast.resumes != 2 {
					t.Errorf("pauseFirst=%v: a %d-poll wait resumed its coroutine %d times, want 2", pauseFirst, polls, fast.resumes)
				}
			}
		})
	}
}

// TestSpinUntilDonePanicIsTheThreadsPanic: a SpinUntil done panics, on its
// first poll and on a later one, each taken by the executor (under
// windowed-run, by the helper that owns node 1). Either way it is thread 2's
// panic: raised in its body, its defers run, reported on the driver, every
// other thread unwound and no goroutine left. Alone on an idle engine the
// thread takes every poll itself, and the panic travels the same way.
func TestSpinUntilDonePanicIsTheThreadsPanic(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	panicsAt := func(at int) doneFunc {
		poll := 0
		return func(uint64, int64) bool {
			if poll == at {
				panic("boom-in-done")
			}
			poll++
			return false
		}
	}
	for _, d := range trapDrivers {
		for _, at := range []int{0, 5} {
			t.Run(fmt.Sprintf("%s/poll-%d", d.name, at), func(t *testing.T) {
				before := runtime.NumGoroutine()
				e := New(2, 1024, model.Uniform(10), 1, d.opts...)
				unwound, deferred := 0, false
				spinners(e, 1, &unwound)
				e.Spawn(1, func(ctx api.Ctx) { // keeps the waiter's polls off the inline path
					defer func() { unwound++ }()
					for {
						ctx.Work(7)
					}
				})
				w := e.Space().AllocLine(1)
				waiter := e.Spawn(1, func(ctx api.Ctx) { // thread 2
					defer func() { deferred = true }()
					ctx.SpinUntil(w, 0, panicsAt(at))
				})
				msg := fmt.Sprint(recovered(func() { d.drive(e) }))
				if !strings.Contains(msg, "thread 2 panicked") || !strings.Contains(msg, "boom-in-done") || !strings.Contains(msg, "passed to SpinUntil") {
					t.Fatalf("done's panic did not reach the driver as thread 2's: %.200s", msg)
				}
				if waiter.resumes != 2 {
					t.Errorf("the waiting thread was resumed %d times, want 2: to start, and to raise the panic", waiter.resumes)
				}
				if !deferred || unwound != 2 {
					t.Errorf("waiting body unwound=%v, %d of 2 other bodies unwound", deferred, unwound)
				}
				if after := settleGoroutines(before); after > before {
					t.Errorf("goroutines leaked across a done's panic: %d before New, %d after", before, after)
				}
			})
		}
		t.Run(d.name+"/alone", func(t *testing.T) {
			e := New(1, 1024, model.Uniform(10), 1, d.opts...)
			w := e.Space().AllocLine(0)
			waiter := e.Spawn(0, func(ctx api.Ctx) { ctx.SpinUntil(w, 0, panicsAt(5)) })
			msg := fmt.Sprint(recovered(func() { d.drive(e) }))
			if !strings.Contains(msg, "thread 0 panicked") || !strings.Contains(msg, "boom-in-done") {
				t.Fatalf("done's panic did not reach the driver as thread 0's: %.200s", msg)
			}
			// Serial, every poll advances the clock in place; a window's end
			// schedules the one that crosses it.
			want := uint64(1)
			if d.opts != nil {
				want = 2
			}
			if waiter.resumes != want {
				t.Errorf("a thread alone on the engine was resumed %d times, want %d", waiter.resumes, want)
			}
		})
	}
}

// TestSpinUntilTripsEventBudgetLikeLoop: a wait nobody ends runs into
// maxEvents at the same event count and virtual time as the loop does, with
// its thread parked in the FIFO entry, and is unwound.
func TestSpinUntilTripsEventBudgetLikeLoop(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			trapped := func(until untilFn) (*Engine, *Thread, bool) {
				e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(500)}, d.opts...)...)
				busy(e, 1<<40)
				w, unwound := e.Space().AllocLine(0), false
				th := e.Spawn(0, func(ctx api.Ctx) {
					defer func() { unwound = true }()
					until(ctx, w, 0, func(uint64, int64) bool { return false })
				})
				if r := recovered(func() { d.drive(e) }); r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
					t.Fatalf("runaway wait did not trap: %v", r)
				}
				return e, th, unwound
			}
			loop, _, _ := trapped(untilLoop)
			method, th, unwound := trapped(untilMethod)
			sameOutcome(t, loop, method)
			if mid := th.nops == 1 && th.ops[th.head].kind == opUntil; !mid || th.resumes != 1 || !unwound {
				t.Errorf("the waiting thread: parked mid-wait=%v, %d resumes, unwound=%v; want true, 1, true", mid, th.resumes, unwound)
			}
		})
	}
}
