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
	"alock/internal/ptr"
	"alock/internal/slots"
)

// spinFn is one way to wait for a local word to stop holding v: the
// api.Ctx method under test, or the loop it is defined as.
type spinFn func(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64

func spinMethod(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	return ctx.SpinWhile(p, v, deadlineNS)
}

// spinLoop is api.Ctx.SpinWhile's definition written out: the reference the
// engine's executor-side stepping is compared against.
func spinLoop(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	for iter := 0; ; iter++ {
		if got := ctx.Read(p); got != v {
			return got
		}
		if deadlineNS > 0 && ctx.Now() >= deadlineNS {
			return v
		}
		ctx.Pause(iter)
	}
}

// spinExit is what a waiter observed when one wait ended.
type spinExit struct {
	got uint64
	at  int64
}

// spinWorld builds a seeded cluster of waiters on their own nodes' words,
// one writer per word (same node with Write, or another node with RWrite)
// bumping it through 1..writes, and a noise thread per node that keeps the
// queue populated so the waiters' blocks take both of tryAdvance's paths.
// Waits mix no deadline, deadlines that fire mid-wait and deadlines already
// passed at entry. Everything random is drawn from per-thread streams keyed
// by seed, so two worlds built from one seed differ only in spin.
func spinWorld(seed int64, spin spinFn, opts ...Option) (*Engine, [][]spinExit) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(2)
	e := New(nodes, 1<<12, model.CX3(), seed, opts...)
	exits := make([][]spinExit, 0, 3*nodes) // never regrown: waiters hold pointers into it
	for n := 0; n < nodes; n++ {
		for k, waiters := 0, 1+setup.Intn(3); k < waiters; k++ {
			node, w, id := n, e.Space().AllocLine(n), int64(len(exits))
			writes := uint64(2 + setup.Intn(4))
			exits = append(exits, nil)
			out := &exits[id]
			e.Spawn(node, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + id))
				cur := uint64(0)
				for cur < writes {
					deadline := int64(0)
					switch rng.Intn(4) {
					case 0:
						deadline = ctx.Now() + 1 + rng.Int63n(3000)
					case 1:
						deadline = ctx.Now()/2 + 1 // already passed when the first poll lands
					}
					cur = spin(ctx, w, cur, deadline)
					*out = append(*out, spinExit{cur, ctx.Now()})
					ctx.Work(time.Duration(rng.Intn(300)))
				}
			})
			from := node
			if setup.Intn(2) == 0 {
				from = (node + 1) % nodes
			}
			e.Spawn(from, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + 100 + id))
				for v := uint64(1); v <= writes; v++ {
					ctx.Work(time.Duration(1 + rng.Intn(2500)))
					if from == node {
						ctx.Write(w, v)
					} else {
						ctx.RWrite(w, v)
					}
				}
			})
		}
		noise, scratch := n, e.Space().AllocLine(n)
		e.Spawn(noise, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<8 + 200 + int64(noise)))
			for i := 0; i < 60; i++ {
				ctx.Work(time.Duration(rng.Intn(400)))
				ctx.Read(scratch)
			}
		})
	}
	return e, exits
}

// sameOutcome fails unless the two engines ended at the same virtual time
// after the same number of events.
func sameOutcome(t *testing.T, loop, method *Engine) {
	t.Helper()
	if loop.Events() != method.Events() || loop.Now() != method.Now() {
		t.Fatalf("loop ended at t=%dns after %d events, SpinWhile at t=%dns after %d",
			loop.Now(), loop.Events(), method.Now(), method.Events())
	}
}

// TestSpinWhileMatchesLoop: SpinWhile against the literal Read/Pause loop on
// twin engines — every wait's return value and return time, Events() and
// Now() — under Run, Step (compared after every single step) and the windowed
// executor, with the access audit on and, in the audit rows, off.
func TestSpinWhileMatchesLoop(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	drivers := []struct {
		name string
		opts []Option
		step bool
	}{
		{"run", nil, false},
		{"step", nil, true},
		{"windowed", []Option{WithShards(2)}, false},
		{"audit", []Option{withoutAudit}, false},
		{"audit-windowed", []Option{withoutAudit, WithShards(2)}, false},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(1); seed <= 120; seed++ {
				loop, want := spinWorld(seed, spinLoop, d.opts...)
				method, got := spinWorld(seed, spinMethod, d.opts...)
				if d.step {
					loop.SetHorizon(1 << 40)
					method.SetHorizon(1 << 40)
					for more := true; more; {
						more = loop.Step()
						if method.Step() != more {
							t.Fatalf("seed %d: engines drained at different steps", seed)
						}
						sameOutcome(t, loop, method)
					}
				} else {
					loop.Run(1 << 40)
					method.Run(1 << 40)
				}
				sameOutcome(t, loop, method)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: waits ended differently\nloop:      %v\nSpinWhile: %v", seed, want, got)
				}
			}
		})
	}
}

// TestSpinWhileWriterOnPollInstant sweeps a single write across a waiter's
// poll schedule, one nanosecond at a time, so that it lands on the exact
// instant of a poll with its event issued after the poll's (a 7 ns Write
// against the 10 ns Read) and before it (a 45 ns CAS), under both spawn
// orders: the poll that ties with the write must see what the loop's sees.
func TestSpinWhileWriterOnPollInstant(t *testing.T) {
	p := model.Uniform(10)
	p.LocalWriteNS, p.LocalCASNS = 7, 45
	p.SpinPollMinNS, p.SpinPollMaxNS = 12, 400
	type outcome struct {
		exit    spinExit
		wroteAt int64
	}
	run := func(spin spinFn, delay int, cas, writerFirst bool) (*Engine, outcome) {
		e := New(1, 1024, p, 1)
		w := e.Space().AllocLine(0)
		var o outcome
		waiter := func(ctx api.Ctx) {
			o.exit.got = spin(ctx, w, 0, 0)
			o.exit.at = ctx.Now()
		}
		writer := func(ctx api.Ctx) {
			ctx.Work(time.Duration(delay))
			if cas {
				ctx.CAS(w, 0, 9)
			} else {
				ctx.Write(w, 9)
			}
			o.wroteAt = ctx.Now()
		}
		if writerFirst {
			e.Spawn(0, writer)
			e.Spawn(0, waiter)
		} else {
			e.Spawn(0, waiter)
			e.Spawn(0, writer)
		}
		e.Run(1 << 40)
		return e, o
	}
	ties := map[bool]int{}
	for delay := 1; delay <= 700; delay++ {
		for _, cas := range []bool{false, true} {
			for _, writerFirst := range []bool{false, true} {
				var polls []int64
				recording := func(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
					for iter := 0; ; iter++ {
						got := ctx.Read(p)
						polls = append(polls, ctx.Now())
						if got != v {
							return got
						}
						ctx.Pause(iter)
					}
				}
				loop, want := run(recording, delay, cas, writerFirst)
				method, got := run(spinMethod, delay, cas, writerFirst)
				sameOutcome(t, loop, method)
				if want != got {
					t.Fatalf("delay %d cas=%v writerFirst=%v: loop %+v, SpinWhile %+v", delay, cas, writerFirst, want, got)
				}
				for _, at := range polls {
					if at == want.wroteAt {
						ties[cas]++
					}
				}
			}
		}
	}
	if ties[false] == 0 || ties[true] == 0 {
		t.Fatalf("sweep never put the write on a poll's instant in both issue orders: %v", ties)
	}
}

// TestSpinWhileDeadline pins the return contract at a deadline: the value
// is checked before the clock, a passed deadline ends the wait at the poll
// that finds it passed (never earlier), and that poll returns v.
func TestSpinWhileDeadline(t *testing.T) {
	// Uniform(10): polls read the word at t0+10, +30, +50, ...
	cases := []struct {
		name     string
		startAt  int64 // Work before the wait
		deadline int64
		writeAt  int64 // 0: the word never changes
		wantGot  uint64
		wantAt   int64
	}{
		{"fires-mid-wait", 0, 45, 0, 0, 50},
		{"on-a-poll-instant", 0, 50, 0, 0, 50},
		{"passed-at-entry", 100, 50, 0, 0, 110},
		{"value-beats-passed-deadline", 100, 50, 105, 9, 110},
		{"no-deadline", 0, 0, 65, 9, 70},
	}
	for _, c := range cases {
		for name, spin := range map[string]spinFn{"loop": spinLoop, "method": spinMethod} {
			e := New(1, 1024, model.Uniform(10), 1)
			w := e.Space().AllocLine(0)
			var exit spinExit
			e.Spawn(0, func(ctx api.Ctx) {
				ctx.Work(time.Duration(c.startAt))
				exit.got = spin(ctx, w, 0, c.deadline)
				exit.at = ctx.Now()
			})
			if c.writeAt > 0 {
				e.Spawn(0, func(ctx api.Ctx) {
					ctx.Work(time.Duration(c.writeAt - 10))
					ctx.Write(w, 9)
				})
			}
			e.Run(1 << 40)
			if exit != (spinExit{c.wantGot, c.wantAt}) {
				t.Errorf("%s/%s: returned %d at t=%dns, want %d at t=%dns", c.name, name, exit.got, exit.at, c.wantGot, c.wantAt)
			}
		}
	}
}

// TestSpinWhileTripsEventBudgetLikeLoop: a spinner nobody releases runs into
// maxEvents at the same event count and virtual time as the loop does.
func TestSpinWhileTripsEventBudgetLikeLoop(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			trapped := func(spin spinFn) *Engine {
				e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(500)}, d.opts...)...)
				for n := 0; n < 2; n++ {
					w := e.Space().AllocLine(n)
					e.Spawn(n, func(ctx api.Ctx) { spin(ctx, w, 0, 0) })
					e.Spawn(n, func(ctx api.Ctx) { // keeps the spinner's blocks off the inline path
						for {
							ctx.Work(50)
						}
					})
				}
				if r := recovered(func() { d.drive(e) }); r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
					t.Fatalf("runaway spin did not trap: %v", r)
				}
				return e
			}
			sameOutcome(t, trapped(spinLoop), trapped(spinMethod))
		})
	}
}

// TestSpinWhileDrainedTrapsLikeLoop: spinners that nobody will ever release
// and nothing else left to run — the queue drains around the parked threads —
// trap at the loop's event count and clock too, however long the budget: the
// parked engine gets there without running the blocks one by one.
func TestSpinWhileDrainedTrapsLikeLoop(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			trapped := func(spin spinFn) *Engine {
				e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(1 << 20)}, d.opts...)...)
				for n := 0; n < 2; n++ {
					w := e.Space().AllocLine(n)
					e.Spawn(n, func(ctx api.Ctx) {
						ctx.Work(time.Duration(100 * (n + 1)))
						spin(ctx, w, 0, 0)
					})
				}
				if r := recovered(func() { d.drive(e) }); r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
					t.Fatalf("runaway spin did not trap: %v", r)
				}
				return e
			}
			sameOutcome(t, trapped(spinLoop), trapped(spinMethod))
		})
	}
}

// TestSpinWhileStaysInExecutor is the test that the mechanism is taken at
// all: a wait of a thousand failed polls, every one of them a scheduled
// event (the noise thread keeps the queue ahead of each block), switches
// into the waiter's coroutine twice — to start it and to end the wait. A
// SpinWhile that fell back to the loop would pass every equivalence test
// above and fail here with a resume per event.
func TestSpinWhileStaysInExecutor(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			world := func(spin spinFn) (*Engine, *Thread) {
				e := New(2, 1024, model.CX3(), 1, d.opts...)
				w := e.Space().AllocLine(0)
				waiter := e.Spawn(0, func(ctx api.Ctx) { spin(ctx, w, 0, 0) })
				e.Spawn(0, func(ctx api.Ctx) {
					for ctx.Now() < 500_000 {
						ctx.Work(5)
					}
					ctx.Write(w, 1)
				})
				d.drive(e)
				return e, waiter
			}
			polls := 0
			loop, _ := world(func(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
				for ; ; polls++ {
					if got := ctx.Read(p); got != v {
						return got
					}
					ctx.Pause(polls)
				}
			})
			if polls < 1000 {
				t.Fatalf("wait ended after %d failed polls; the test needs 1000", polls)
			}
			method, waiter := world(spinMethod)
			sameOutcome(t, loop, method)
			if waiter.resumes > 2 {
				t.Errorf("a %d-poll wait resumed its coroutine %d times, want <= 2", polls, waiter.resumes)
			}
		})
	}
}

// TestSpinWhileParks is TestSpinWhileStaysInExecutor's twin for the events: a
// wait of a thousand failed polls beside a noise thread that keeps the queue
// busy dispatches a handful of events — its first poll, the poll the write
// wakes it for — and credits the rest, so Events still counts every block of
// the loop. A SpinWhile that fell back to polling would pass every
// equivalence test and fail here with two dispatched events per poll.
func TestSpinWhileParks(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			world := func(spin spinFn) *Engine {
				e := New(2, 1024, model.CX3(), 1, d.opts...)
				w := e.Space().AllocLine(0)
				e.Spawn(0, func(ctx api.Ctx) { spin(ctx, w, 0, 0) })
				e.Spawn(0, func(ctx api.Ctx) {
					for ctx.Now() < 500_000 {
						ctx.Work(5)
					}
					ctx.Write(w, 1)
				})
				d.drive(e)
				return e
			}
			polls := 0
			loop := world(func(ctx api.Ctx, p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
				for ; ; polls++ {
					if got := ctx.Read(p); got != v {
						return got
					}
					ctx.Pause(polls)
				}
			})
			if polls < 1000 {
				t.Fatalf("wait ended after %d failed polls; the test needs 1000", polls)
			}
			method := world(spinMethod)
			sameOutcome(t, loop, method)
			// Every block the loop ran is an event of the loop's engine; the
			// parked wait's engine dispatched the noise thread's alone, but for
			// a handful.
			waitBlocks := 2*uint64(polls) + 1
			if extra := method.tl.events - (loop.tl.events - waitBlocks); extra > 4 {
				t.Errorf("a %d-poll wait dispatched %d events, want <= 4", polls, extra)
			}
			if method.tl.credited < waitBlocks-4 {
				t.Errorf("a %d-poll wait credited %d blocks, want >= %d", polls, method.tl.credited, waitBlocks-4)
			}
		})
	}
}
