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

// loopFunc is what api.Ctx.WorkLoop takes.
type loopFunc = func(now int64, stopped bool) (time.Duration, bool)

// loopFn is one way to run a loopFunc: the api.Ctx method under test, or the
// loop it is defined as.
type loopFn func(ctx api.Ctx, f loopFunc)

func loopMethod(ctx api.Ctx, f loopFunc) { ctx.WorkLoop(f) }

// loopWritten is api.Ctx.WorkLoop's definition written out: the reference the
// engine's executor-side ticking is compared against.
func loopWritten(ctx api.Ctx, f loopFunc) {
	for {
		d, again := f(ctx.Now(), ctx.Stopped())
		if !again {
			return
		}
		ctx.Work(d)
	}
}

// tickSeen is one call of a loop's function, or (d < 0) the loop's return.
type tickSeen struct {
	now     int64
	stopped bool
	d       time.Duration
}

// loopWorld builds a seeded cluster of threads that wait in loops of every
// shape: a fixed number of turns (none at all included), until a Go-side
// counter of their node moves (a flipper thread per node bumps it), until the
// run stops; turns of 1-700 ns and of none; Write and Fence posted ahead of
// some calls; a store to the thread's own word, sometimes an RWrite to the
// next node's, after each. A noise thread per node keeps the queue populated so
// turns take both of tryAdvance's paths. With stopper set, a thread on node 0
// ends the run with RequestStop instead of the horizon. Every call of every
// loop's function is logged with what it was told and what it answered. Two
// worlds built from one seed differ only in loop.
func loopWorld(seed int64, loop loopFn, stopper bool, opts ...Option) (e *Engine, words []ptr.Ptr, horizon int64, logs [][]tickSeen) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(3)
	// A world is a few thousand events; the budget turns an engine that lets a
	// loop miss the stop into a trap instead of an ever-growing log.
	e = New(nodes, 1<<12, model.CX3(), seed, append([]Option{WithMaxEvents(1 << 20)}, opts...)...)
	words = make([]ptr.Ptr, nodes)
	for n := range words {
		words[n] = e.Space().AllocLine(n)
	}
	horizon = 15_000 + setup.Int63n(15_000)
	if stopper {
		stopAt := time.Duration(horizon)
		horizon = 1 << 40
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.Work(stopAt)
			e.RequestStop()
		})
	}
	logs = make([][]tickSeen, 0, 3*nodes) // never regrown: loops hold pointers into it
	for n := 0; n < nodes; n++ {
		node, flips := n, new(int)
		for k, loopers := 0, 1+setup.Intn(3); k < loopers; k++ {
			id, slot := int64(len(logs)), uint64(k)
			logs = append(logs, nil)
			log := &logs[id]
			e.Spawn(node, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + id))
				for round := uint64(1); !ctx.Stopped(); round++ {
					for i, ahead := 0, rng.Intn(4); i < ahead; i++ {
						if rng.Intn(2) == 0 {
							ctx.Write(words[node].Add(slot), round<<8)
						} else {
							ctx.Fence()
						}
					}
					shape, turns, seenFlips, zero := rng.Intn(8), rng.Intn(6), *flips, false
					loop(ctx, func(now int64, stopped bool) (d time.Duration, again bool) {
						switch {
						case stopped:
						case shape < 5:
							again = turns > 0
							turns--
						case shape < 7:
							again = *flips == seenFlips
						default:
							again = true
						}
						if again {
							if zero = !zero && rng.Intn(4) == 0; !zero {
								d = time.Duration(1 + rng.Intn(700))
							}
						}
						*log = append(*log, tickSeen{now, stopped, d})
						return d, again
					})
					*log = append(*log, tickSeen{ctx.Now(), ctx.Stopped(), -1})
					ctx.Write(words[node].Add(slot), round)
					if rng.Intn(3) == 0 {
						ctx.RWrite(words[(node+1)%nodes].Add(4+slot), round)
					}
					ctx.Work(time.Duration(rng.Intn(300)))
				}
			})
		}
		e.Spawn(node, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<8 + 100 + int64(node)))
			for !ctx.Stopped() {
				ctx.Work(time.Duration(1 + rng.Intn(2500)))
				*flips++
			}
		})
		e.Spawn(node, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<8 + 200 + int64(node)))
			for !ctx.Stopped() {
				ctx.Work(time.Duration(rng.Intn(400)))
				ctx.Read(words[node].Add(7))
			}
		})
	}
	return e, words, horizon, logs
}

// popSeen identifies one popped event.
type popSeen struct {
	at   int64
	seq  uint64
	th   int
	kind uint8
}

// drivePops runs e to the horizon and returns the events it popped, in order,
// per shard under the windowed executor (a shard's events are popped by the
// one worker that owns it) and as one sequence under the serial one.
func drivePops(e *Engine, horizon int64) [][]popSeen {
	if e.workers > 0 {
		pops := make([][]popSeen, len(e.shards))
		e.onWindowEvent = func(s *shard, ev event) {
			pops[s.node] = append(pops[s.node], popSeen{ev.at, ev.seq, ev.th.id, ev.kind})
		}
		e.Run(horizon)
		return pops
	}
	var pops []popSeen
	e.setHorizon(horizon)
	for e.pending() > 0 {
		ev := e.tl.q.min()
		pops = append(pops, popSeen{ev.at, ev.seq, ev.th.id, ev.kind})
		e.processNextEvent()
	}
	return [][]popSeen{pops}
}

// TestWorkLoopMatchesLoop: WorkLoop against the literal loop on twin engines —
// the clock, Events, the memory image and NIC stats, every event popped (time,
// seq, thread, kind), and every call of every loop's function with the time and
// stop flag it was handed — under the serial executor with the horizon and
// with a RequestStop landing between turns, the windowed executor at two and
// four workers, with the access audit on and, in the audit row, off; with fewer
// coroutine resumes.
func TestWorkLoopMatchesLoop(t *testing.T) {
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
		{"audit-windowed", []Option{withoutAudit, WithShards(2)}, false},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			turns, zeros, stops := 0, 0, 0
			for seed := int64(1); seed <= 80; seed++ {
				written, words, horizon, want := loopWorld(seed, loopWritten, d.stopper, d.opts...)
				method, _, _, got := loopWorld(seed, loopMethod, d.stopper, d.opts...)
				wantPops := drivePops(written, horizon)
				gotPops := drivePops(method, horizon)
				if w, g := fingerprint(written, words), fingerprint(method, words); w != g {
					t.Fatalf("seed %d: runs ended differently\nloop:     %s\nWorkLoop: %s", seed, w, g)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: the loops' functions were called differently", seed)
				}
				if !reflect.DeepEqual(wantPops, gotPops) {
					t.Fatalf("seed %d: the engines popped different events", seed)
				}
				if w, g := written.Resumes(), method.Resumes(); g >= w {
					t.Fatalf("seed %d: WorkLoop resumed coroutines %d times, the loop %d", seed, g, w)
				}
				for _, log := range got {
					for i, s := range log {
						switch {
						case s.d > 0:
							turns++
						case s.d == 0 && i+1 < len(log) && log[i+1].d >= 0:
							zeros++
						case s.d == 0 && s.stopped:
							stops++
						}
					}
				}
			}
			if turns < 1000 || zeros < 100 || stops < 80 {
				t.Fatalf("the worlds ran %d timed turns, %d empty ones and %d loops into the stop: too few to mean anything", turns, zeros, stops)
			}
		})
	}
}

// ticker spawns a thread on node 0 that runs one loop of `turns` turns of
// 50 ns, behind a posted Write and Fence if posted is set, with a busy
// neighbour so that every turn is a scheduled event.
func ticker(e *Engine, loop loopFn, turns int, posted bool) *Thread {
	busy(e, int64(turns)*50+2_000)
	w := e.Space().AllocLine(0)
	return e.Spawn(0, func(ctx api.Ctx) {
		if posted {
			ctx.Write(w, 1)
			ctx.Fence()
		}
		left := turns
		loop(ctx, func(int64, bool) (time.Duration, bool) {
			left--
			return 50, left >= 0
		})
	})
}

// TestWorkLoopStaysInExecutor is the test that the mechanism is taken at all:
// a loop of a thousand turns, every one a scheduled event, switches into its
// thread twice — to start it and when the loop is over — and once more when
// ops posted ahead of the call have to land before its function's first look.
// A WorkLoop that ran the written-out loop would pass every equivalence test
// above and fail here with a resume per turn.
func TestWorkLoopStaysInExecutor(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			for _, posted := range []bool{false, true} {
				world := func(loop loopFn) (*Engine, *Thread) {
					e := New(2, 1024, model.CX3(), 1, d.opts...)
					th := ticker(e, loop, 1000, posted)
					d.drive(e)
					return e, th
				}
				written, slow := world(loopWritten)
				method, fast := world(loopMethod)
				sameOutcome(t, written, method)
				if slow.resumes < 1000 {
					t.Fatalf("posted=%v: the written-out loop resumed %d times; the test needs every turn scheduled", posted, slow.resumes)
				}
				want := uint64(2)
				if posted {
					want = 3
				}
				if fast.resumes != want {
					t.Errorf("posted=%v: a 1000-turn WorkLoop resumed its coroutine %d times, want %d", posted, fast.resumes, want)
				}
			}
		})
	}
}

// TestWorkLoopTripsEventBudgetLikeLoop: a loop nobody ends runs into
// maxEvents at the same event count and virtual time as the written-out one,
// with its thread parked in the FIFO entry, and is unwound.
func TestWorkLoopTripsEventBudgetLikeLoop(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			trapped := func(loop loopFn) (*Engine, *Thread, bool) {
				e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(500)}, d.opts...)...)
				busy(e, 1<<40)
				unwound := false
				th := e.Spawn(0, func(ctx api.Ctx) {
					defer func() { unwound = true }()
					loop(ctx, func(int64, bool) (time.Duration, bool) { return 40, true })
				})
				if r := recovered(func() { d.drive(e) }); r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
					t.Fatalf("runaway loop did not trap: %v", r)
				}
				return e, th, unwound
			}
			written, _, _ := trapped(loopWritten)
			method, th, unwound := trapped(loopMethod)
			sameOutcome(t, written, method)
			if mid := th.nops == 1 && th.ops[th.head].kind == opLoop; !mid || th.resumes != 1 || !unwound {
				t.Errorf("the looping thread: parked mid-loop=%v, %d resumes, unwound=%v; want true, 1, true", mid, th.resumes, unwound)
			}
		})
	}
}
