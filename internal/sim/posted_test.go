package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/slots"
)

// syncCtx is api.Ctx's completion contract written out: the same thread with
// Now() called after every operation that may return early. The engine's
// posted Write/Fence/Pause are held to it — same events, instants, memory and
// observations, fewer coroutine resumes.
type syncCtx struct{ api.Ctx }

func (c syncCtx) Write(p ptr.Ptr, v uint64) { c.Ctx.Write(p, v); c.Ctx.Now() }
func (c syncCtx) Fence()                    { c.Ctx.Fence(); c.Ctx.Now() }
func (c syncCtx) Pause(iter int)            { c.Ctx.Pause(iter); c.Ctx.Now() }

// ctxWrap hands a thread body its ctx: as the engine made it, or completing
// every operation before the next is issued.
type ctxWrap func(api.Ctx) api.Ctx

func posted(ctx api.Ctx) api.Ctx      { return ctx }
func synchronous(ctx api.Ctx) api.Ctx { return syncCtx{ctx} }

// seen is one value a thread's program observed, and when.
type seen struct {
	got uint64
	at  int64
}

// postedWorld spawns seeded random programs over every api.Ctx operation on
// 2-4 nodes with 2-3 threads each: runs of Write/Fence/Pause (some longer
// than the FIFO), Read, CAS, SpinWhile (absolute deadlines, some already
// passed), Work (some of zero length), and RRead/RWrite/RCAS on own-node
// (loopback) and other nodes' words — CX3, so remote CAS tears — and Alloc/Free
// on the node's shared allocator. Values stay in 0..3 so compares hit. Every
// value-returning call is recorded (an Alloc by the address it got) with the
// time it returned; bodies end wherever their program does, posted ops included.
// Two worlds built from one seed differ only in wrap.
func postedWorld(seed int64, wrap ctxWrap, opts ...Option) (*Engine, []ptr.Ptr, [][]seen) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(3)
	e := New(nodes, 1<<12, model.CX3(), seed, opts...)
	words := make([]ptr.Ptr, nodes)
	for n := range words {
		words[n] = e.Space().AllocLine(n)
	}
	var log [][]seen
	for n := 0; n < nodes; n++ {
		for k, tpn := 0, 2+setup.Intn(2); k < tpn; k++ {
			node, id := n, int64(len(log))
			log = append(log, nil)
			e.Spawn(node, func(raw api.Ctx) {
				ctx := wrap(raw)
				rng := rand.New(rand.NewSource(seed<<8 + id))
				own := func() ptr.Ptr { return words[node].Add(uint64(rng.Intn(8))) }
				anywhere := func() ptr.Ptr { return words[rng.Intn(nodes)].Add(uint64(rng.Intn(8))) }
				val := func() uint64 { return uint64(rng.Intn(4)) }
				see := func(v uint64) { log[id] = append(log[id], seen{v, ctx.Now()}) }
				var mine []ptr.Ptr
				for step := 0; step < 120; step++ {
					switch rng.Intn(18) {
					case 0, 1, 2:
						ctx.Write(own(), val())
					case 3, 4:
						ctx.Fence()
					case 5:
						ctx.Pause(rng.Intn(6))
					case 6: // a run longer than the FIFO
						for i, n := 0, 9+rng.Intn(10); i < n; i++ {
							ctx.Write(own(), val())
						}
					case 7, 8:
						see(ctx.Read(own()))
					case 9:
						see(ctx.CAS(own(), val(), val()))
					case 10:
						see(ctx.SpinWhile(own(), val(), 1+rng.Int63n(40_000)))
					case 11:
						ctx.Work(time.Duration(rng.Intn(3) * rng.Intn(200)))
					case 12:
						see(ctx.RRead(anywhere()))
					case 13:
						ctx.RWrite(anywhere(), val())
					case 14, 15:
						see(ctx.RCAS(anywhere(), val(), val()))
					case 16, 17:
						if len(mine) > 0 && rng.Intn(2) == 0 {
							ctx.Free(mine[len(mine)-1])
							mine = mine[:len(mine)-1]
						} else {
							mine = append(mine, ctx.Alloc(1+rng.Intn(2), 1))
							see(uint64(mine[len(mine)-1]))
						}
					}
				}
			})
		}
	}
	return e, words, log
}

// TestPostedOpsMatchSynchronous: random programs with posted local ops
// against the same programs completing every op before the next — final
// clock, Events, memory image, NIC stats and every thread's (value, time)
// observations equal, under both executors, with the access audit on and, in
// the audit row, off; with strictly fewer resumes.
func TestPostedOpsMatchSynchronous(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	drivers := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"windowed", []Option{WithShards(4)}},
		{"audit", []Option{withoutAudit}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				want, words, wantLog := postedWorld(seed, synchronous, d.opts...)
				got, _, gotLog := postedWorld(seed, posted, d.opts...)
				want.Run(1 << 40)
				got.Run(1 << 40)
				if w, g := fingerprint(want, words), fingerprint(got, words); w != g {
					t.Fatalf("seed %d: runs ended differently\nsynchronous: %s\nposted:      %s", seed, w, g)
				}
				if !reflect.DeepEqual(wantLog, gotLog) {
					t.Fatalf("seed %d: threads observed different values or times", seed)
				}
				if w, g := want.Resumes(), got.Resumes(); g >= w {
					t.Fatalf("seed %d: posted ops resumed coroutines %d times, synchronous %d", seed, g, w)
				}
			}
		})
	}
}

// postedTwins runs prog — which spawns its threads, handing their bodies the
// wrap it is given, and files what they record under twin (0 posted, 1
// synchronous) — once per wrap on fresh engines, drives both, and fails
// unless they end at the same time after the same number of events.
func postedTwins(t *testing.T, nodes int, drive func(*Engine), prog func(e *Engine, wrap ctxWrap, twin int), opts ...Option) (post, sync *Engine) {
	t.Helper()
	post = New(nodes, 1<<12, model.CX3(), 1, opts...)
	sync = New(nodes, 1<<12, model.CX3(), 1, opts...)
	prog(post, posted, 0)
	prog(sync, synchronous, 1)
	drive(post)
	drive(sync)
	sameOutcome(t, sync, post)
	return post, sync
}

// busy keeps node 0's queue populated so that other threads' blocks are
// scheduled events, not inline advances.
func busy(e *Engine, untilNS int64) {
	e.Spawn(0, func(ctx api.Ctx) {
		for ctx.Now() < untilNS {
			ctx.Work(3)
		}
	})
}

// TestPostedChainResumesOnce is the test that ops are posted at all: with
// every block a scheduled event, `Write; Write; Fence; CAS` is four events and
// one resume, and twenty Writes drain a full FIFO twice on the way. A Thread
// that completed each op before returning would pass every equivalence test
// and fail here.
func TestPostedChainResumesOnce(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			var chain, long [2]*Thread
			var w ptr.Ptr
			post, sync := postedTwins(t, 2, d.drive, func(e *Engine, wrap ctxWrap, i int) {
				w = e.Space().AllocLine(0)
				busy(e, 5_000)
				chain[i] = e.Spawn(0, func(raw api.Ctx) {
					ctx := wrap(raw)
					ctx.Write(w, 1)
					ctx.Write(w.Add(1), 2)
					ctx.Fence()
					if got := ctx.CAS(w, 1, 3); got != 1 {
						panic(fmt.Sprintf("CAS read %d before the Write ahead of it landed", got))
					}
				})
				long[i] = e.Spawn(0, func(raw api.Ctx) {
					ctx := wrap(raw)
					for k := uint64(0); k < 20; k++ {
						ctx.Write(w.Add(2+k%6), k)
					}
				})
			}, d.opts...)
			// To start it, and once the CAS behind the chain has completed.
			if chain[0].resumes != 2 || chain[1].resumes != 5 {
				t.Errorf("Write; Write; Fence; CAS resumed %d times posted and %d synchronous, want 2 and 5", chain[0].resumes, chain[1].resumes)
			}
			// To start it, when the 9th and the 17th Write find the FIFO full,
			// and when the last four have landed behind the returned body.
			if long[0].resumes != 4 || long[1].resumes != 21 {
				t.Errorf("twenty Writes resumed %d times posted and %d synchronous, want 4 and 21", long[0].resumes, long[1].resumes)
			}
			for _, e := range []*Engine{post, sync} {
				if a, b := *e.Space().WordAddr(w), *e.Space().WordAddr(w.Add(3)); a != 3 || b != 19 {
					t.Errorf("memory after the run: w=%d w+3=%d, want 3 and 19", a, b)
				}
			}
		})
	}
}

// TestPostedOpsLandAfterBodyReturns: a body that returns with stores still
// posted — each lands at the instant it would have, a poller on the same word
// sees it at the same poll, and Run does not mistake the drained-but-returned
// thread for a deadlock.
func TestPostedOpsLandAfterBodyReturns(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			var polls [2][]seen
			postedTwins(t, 1, d.drive, func(e *Engine, wrap ctxWrap, i int) {
				w, out := e.Space().AllocLine(0), &polls[i]
				e.Spawn(0, func(raw api.Ctx) {
					ctx := wrap(raw)
					ctx.Work(200)
					ctx.Write(w, 1)
					ctx.Fence()
					ctx.Pause(3)
					ctx.Write(w, 2)
				})
				e.Spawn(0, func(ctx api.Ctx) {
					for v := uint64(0); v != 2; {
						v = ctx.Read(w)
						*out = append(*out, seen{v, ctx.Now()})
					}
				})
			}, d.opts...)
			if !reflect.DeepEqual(polls[0], polls[1]) {
				t.Fatalf("the poller saw the stores at different polls\nposted:      %v\nsynchronous: %v", polls[0], polls[1])
			}
		})
	}
}

// TestPostedOpsStopAtTheSameEvent: a loop of posted ops that ends on
// Stopped() leaves it after the same number of turns at the same instant,
// whether the stop is Run's horizon, a horizon the driver shortens mid-run
// between Steps, or another thread's RequestStop.
func TestPostedOpsStopAtTheSameEvent(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	type exit struct {
		turns int
		at    int64
	}
	loops := func(exits *[2][3]exit, stopper bool) func(e *Engine, wrap ctxWrap, twin int) {
		return func(e *Engine, wrap ctxWrap, twin int) {
			busy(e, 3_000)
			for k := 0; k < 3; k++ {
				w, out := e.Space().AllocLine(k%2), &exits[twin][k]
				e.Spawn(k%2, func(raw api.Ctx) {
					ctx := wrap(raw)
					for !ctx.Stopped() {
						ctx.Write(w, uint64(out.turns))
						ctx.Write(w.Add(1), 7)
						ctx.Fence()
						out.turns++
					}
					out.at = ctx.Now()
				})
			}
			if stopper {
				e.Spawn(1, func(ctx api.Ctx) {
					ctx.Work(7_013)
					e.RequestStop()
				})
			}
		}
	}
	run := func(e *Engine) { e.Run(7_013) }
	shorten := func(e *Engine) {
		e.setHorizon(1 << 40)
		for e.Now() < 5_000 {
			e.processNextEvent()
		}
		e.setHorizon(7_013)
		for e.processNextEvent() {
		}
	}
	forever := func(e *Engine) { e.Run(1 << 40) }
	cases := []struct {
		name    string
		drive   func(*Engine)
		stopper bool
		opts    []Option
	}{
		{"horizon", run, false, nil},
		{"horizon-windowed", run, false, []Option{WithShards(2)}},
		{"set-horizon-between-steps", shorten, false, nil},
		{"request-stop", forever, true, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var exits [2][3]exit
			postedTwins(t, 2, c.drive, loops(&exits, c.stopper), c.opts...)
			if exits[0] != exits[1] {
				t.Fatalf("loops left at different turns or times\nposted:      %v\nsynchronous: %v", exits[0], exits[1])
			}
			if exits[0][0].turns == 0 || exits[0][0].at < 7_013 {
				t.Fatalf("the loops did not run into the stop: %v", exits[0])
			}
		})
	}
}

// TestPostedCrossNodeWritePanicsAtIssue: under the access audit a local Write
// to another node's word panics inside the call that issued it, with the
// message it always had — not later, when the executor would have applied
// it — and the ops posted ahead of it still land.
func TestPostedCrossNodeWritePanicsAtIssue(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			e := New(2, 1024, model.CX3(), 1, d.opts...)
			mine, theirs := e.Space().AllocLine(0), e.Space().AllocLine(1)
			busy(e, 2_000)
			var atIssue any
			e.Spawn(0, func(ctx api.Ctx) {
				ctx.Write(mine, 5)
				ctx.Fence()
				func() {
					defer func() { atIssue = recover() }()
					ctx.Write(theirs, 6)
				}()
			})
			d.drive(e)
			want := "sim: access audit: thread 1 on node 0 used a local operation on node 1's memory"
			if atIssue != want {
				t.Fatalf("the Write call panicked with %q, want %q", atIssue, want)
			}
			if got := *e.Space().WordAddr(mine); got != 5 {
				t.Errorf("the Write posted ahead of the bad one left %d, want 5", got)
			}
			if got := *e.Space().WordAddr(theirs); got != 0 {
				t.Errorf("the audited Write reached node 1's word: %d", got)
			}
		})
	}
}

// rcasFn is one way to run an own-node RCAS under model.TornRCAS: the api.Ctx
// method, whose three legs the executor carries, or the same legs with the
// thread resumed after each.
type rcasFn func(ctx api.Ctx, p ptr.Ptr, old, new uint64) uint64

func rcasMethod(ctx api.Ctx, p ptr.Ptr, old, new uint64) uint64 { return ctx.RCAS(p, old, new) }

// rcasByLegs returns the torn loopback RCAS written out as the thread's own
// program, one completed wait per leg: to the verb's execution, where the read
// half waits SpinPollMinNS at a time for any other remote RMW to let go of the
// word (counted in rearms); across the tear to the write half; to the verb's
// completion. RCAS is held to it event for event.
func rcasByLegs(rearms *atomic.Int64) rcasFn {
	return func(ctx api.Ctx, p ptr.Ptr, old, new uint64) uint64 {
		t := ctx.(*Thread)
		wait := func(at int64) {
			t.post(localOp{d: at - t.now()})
			t.drain()
		}
		execAt, doneAt := t.loopVerbTimes(p)
		wait(execAt)
		for {
			// The write half ends the tear TornGapNS on, at its block's key.
			if _, ok := t.shard.holdTorn(p, wakeID{t.now() + t.e.p.TornGapNS, eventSeq(t.now(), t.id, evWake)}); ok {
				break
			}
			rearms.Add(1) // threads of several shards count here, in parallel windows
			wait(t.now() + t.e.p.SpinPollMinNS)
		}
		addr := t.e.space.WordAddr(p)
		prev := *addr
		wait(t.now() + t.e.p.TornGapNS)
		if prev == old {
			*addr = new
		}
		t.shard.releaseTorn(p)
		wait(max(doneAt, t.now()))
		t.shard.loopInFlight--
		return prev
	}
}

// tornWorld spawns seeded threads that hammer a few words per node with
// loopback RCASes — several threads per word, so read halves find the word
// held — interleaved with the local Read, Write and CAS that slide into a
// tear, other nodes' RCASes on the same words (the cross-node torn path shares
// the node's book of held words) and Work. Values stay in 0..2 so compares
// hit. Every returned value is recorded with the time it returned. CX3's tear
// (180 ns) is barely longer than one NIC service slot (130 ns, more under
// load), so back-to-back verbs seldom overlap; odd seeds stretch it to 700 ns,
// past the verb's completion, so that read halves queue up behind held words
// and write halves land after doneAt. Two worlds built from one seed differ
// only in rcas.
func tornWorld(seed int64, rcas rcasFn, opts ...Option) (*Engine, []ptr.Ptr, [][]seen) {
	p := model.CX3()
	if seed%2 == 1 {
		p.TornGapNS = 700
	}
	return tornWorldOn(seed, rcas, p, opts...)
}

// tornWorldOn is tornWorld under the cost model p.
func tornWorldOn(seed int64, rcas rcasFn, p model.Params, opts ...Option) (*Engine, []ptr.Ptr, [][]seen) {
	setup := rand.New(rand.NewSource(seed))
	nodes := 2 + setup.Intn(3)
	// A world is some ten thousand events; the budget turns a word that is
	// never released into a trap instead of a read half that polls for ever.
	e := New(nodes, 1<<12, p, seed, append([]Option{WithMaxEvents(1 << 20)}, opts...)...)
	words := make([]ptr.Ptr, nodes)
	for n := range words {
		words[n] = e.Space().AllocLine(n)
	}
	var log [][]seen
	for n := 0; n < nodes; n++ {
		for k, tpn := 0, 3+setup.Intn(3); k < tpn; k++ {
			node, id := n, int64(len(log))
			log = append(log, nil)
			e.Spawn(node, func(ctx api.Ctx) {
				rng := rand.New(rand.NewSource(seed<<8 + id))
				own := func() ptr.Ptr { return words[node].Add(uint64(rng.Intn(2))) }
				val := func() uint64 { return uint64(rng.Intn(3)) }
				see := func(v uint64) { log[id] = append(log[id], seen{v, ctx.Now()}) }
				for step := 0; step < 80; step++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						see(rcas(ctx, own(), val(), val()))
					case 4:
						see(ctx.CAS(own(), val(), val()))
					case 5:
						ctx.Write(own(), val())
					case 6:
						see(ctx.Read(own()))
					case 7:
						see(ctx.RCAS(words[(node+1)%nodes].Add(uint64(rng.Intn(2))), val(), val()))
					default:
						ctx.Work(time.Duration(rng.Intn(400)))
					}
				}
			})
		}
	}
	return e, words, log
}

// TestTornLoopbackRCASMatchesLegs: the torn loopback RCAS the executor carries
// against the same verb with the thread resumed after every leg — final clock,
// Events, memory image, NIC stats, every event popped and every thread's
// (value, time) observations equal, under both executors, with the access
// audit on and, in the audit row, off; with fewer resumes; and the worlds do
// make read halves wait for a held word.
func TestTornLoopbackRCASMatchesLegs(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	drivers := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"windowed-2", []Option{WithShards(2)}},
		{"windowed-4", []Option{WithShards(4)}},
		{"audit-windowed", []Option{withoutAudit, WithShards(2)}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var rearms atomic.Int64
			for seed := int64(1); seed <= 60; seed++ {
				want, words, wantLog := tornWorld(seed, rcasByLegs(&rearms), d.opts...)
				got, _, gotLog := tornWorld(seed, rcasMethod, d.opts...)
				wantPops := drivePops(want, 1<<40)
				gotPops := drivePops(got, 1<<40)
				if w, g := fingerprint(want, words), fingerprint(got, words); w != g {
					t.Fatalf("seed %d: runs ended differently\nby legs: %s\nRCAS:    %s", seed, w, g)
				}
				if !reflect.DeepEqual(wantLog, gotLog) {
					t.Fatalf("seed %d: threads observed different values or times", seed)
				}
				if !reflect.DeepEqual(wantPops, gotPops) {
					t.Fatalf("seed %d: the engines popped different events", seed)
				}
				if w, g := want.Resumes(), got.Resumes(); g >= w {
					t.Fatalf("seed %d: RCAS resumed coroutines %d times, its legs %d", seed, g, w)
				}
			}
			if n := rearms.Load(); n < 500 {
				t.Fatalf("read halves found their word held %d times: too few to mean anything", n)
			}
		})
	}
}

// TestTornLoopbackRCASResumesOnce is the test that the legs ride the FIFO at
// all: with every leg a scheduled event, a torn loopback RCAS switches into its
// thread once, with the result, where the legs written out do three times.
func TestTornLoopbackRCASResumesOnce(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			world := func(rcas rcasFn) (*Engine, *Thread) {
				e := New(2, 1024, model.CX3(), 1, d.opts...)
				w := e.Space().AllocLine(0)
				busy(e, 20_000)
				th := e.Spawn(0, func(ctx api.Ctx) {
					for i := uint64(0); i < 10; i++ {
						if got := rcas(ctx, w, i, i+1); got != i {
							panic(fmt.Sprintf("RCAS %d read %d", i, got))
						}
					}
				})
				d.drive(e)
				return e, th
			}
			legs, slow := world(rcasByLegs(new(atomic.Int64)))
			method, fast := world(rcasMethod)
			sameOutcome(t, legs, method)
			if slow.resumes != 31 || fast.resumes != 11 {
				t.Errorf("ten torn loopback RCASes resumed %d times by legs and %d as one entry, want 31 and 11", slow.resumes, fast.resumes)
			}
		})
	}
}

// TestTornLoopbackRCASContention: two threads aim a loopback RCAS(w, 0, mine)
// at one word. Remote RMWs are atomic with each other (Table 1): the second
// read half finds the word held, looks again after the first's write half, and
// reads its value — exactly one of them wins. A read half that ignored the
// held word would read 0 inside the first one's tear and both would succeed.
func TestTornLoopbackRCASContention(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			long := model.CX3()
			long.TornGapNS = 1000 // the first tear is still open when the second verb executes, at every stagger
			for stagger := 0; stagger <= 400; stagger += 20 {
				var rearms atomic.Int64
				var got [2][2]seen
				for twin, rcas := range []rcasFn{rcasMethod, rcasByLegs(&rearms)} {
					e := New(1, 1024, long, 1, d.opts...)
					w := e.Space().AllocLine(0)
					for k := 0; k < 2; k++ {
						out, delay, mine := &got[twin][k], time.Duration(k*stagger), uint64(k+1)
						e.Spawn(0, func(ctx api.Ctx) {
							ctx.RRead(w.Add(mine)) // fetch the connection's QP context: a miss would keep the two verbs 850 ns apart
							ctx.Work(time.Duration(10_000-ctx.Now()) + delay)
							out.got = rcas(ctx, w, 0, mine)
							out.at = ctx.Now()
						})
					}
					d.drive(e)
					first, second := got[twin][0].got, got[twin][1].got
					if first != 0 || second != 1 || *e.Space().WordAddr(w) != 1 {
						t.Fatalf("stagger %d: the RCASes read %d and %d and left %d, want 0, 1 and 1", stagger, first, second, *e.Space().WordAddr(w))
					}
				}
				if got[0] != got[1] {
					t.Fatalf("stagger %d: RCAS returned %v, its legs %v", stagger, got[0], got[1])
				}
				if rearms.Load() == 0 {
					t.Fatalf("stagger %d: the second read half never found the word held", stagger)
				}
			}
		})
	}
}

// TestTornLoopbackRCASTearsAgainstLocalCAS keeps Table 1 observable: a local
// CAS that lands between the halves of a loopback RCAS succeeds, and the write
// half then overwrites it — both report success, one update is lost. The local
// CAS is swept across the verb a nanosecond at a time; the instants at which it
// is lost must exist, span the tear, and be those of the legs written out.
func TestTornLoopbackRCASTearsAgainstLocalCAS(t *testing.T) {
	var lost [2][]int
	for twin, rcas := range []rcasFn{rcasMethod, rcasByLegs(new(atomic.Int64))} {
		for delay := 1000; delay <= 1800; delay++ {
			e := New(1, 1024, model.CX3(), 1)
			w := e.Space().AllocLine(0)
			var remote, local uint64
			e.Spawn(0, func(ctx api.Ctx) { remote = rcas(ctx, w, 0, 1) })
			e.Spawn(0, func(ctx api.Ctx) {
				ctx.Work(time.Duration(delay))
				local = ctx.CAS(w, 0, 7)
			})
			e.Run(1 << 40)
			final := *e.Space().WordAddr(w)
			switch {
			case remote == 0 && local == 0 && final == 1:
				lost[twin] = append(lost[twin], delay)
			case remote == 0 && local == 1 && final == 1: // the CAS came after the write half
			case remote == 7 && local == 0 && final == 7: // the CAS came before the read half
			default:
				t.Fatalf("delay %d: RCAS read %d, CAS read %d, word left %d", delay, remote, local, final)
			}
		}
	}
	gap := int(model.CX3().TornGapNS)
	if n := len(lost[0]); n != gap || lost[0][n-1]-lost[0][0] != gap-1 {
		t.Fatalf("the local CAS was lost at %d instants, want the %d of the tear: %v", n, gap, lost[0])
	}
	if !reflect.DeepEqual(lost[0], lost[1]) {
		t.Fatalf("the tear is open at different instants\nRCAS:    %v\nby legs: %v", lost[0], lost[1])
	}
}

// withStepTorn makes a torn read half that finds its word held retry every
// SpinPollMinNS, the loop retryTorn's leap is held to.
func withStepTorn(e *Engine) { e.stepTorn = true }

// hotWordWorld spawns six threads on each of three nodes that aim 200 remote
// RCASes each at one word of node 0, under the cost model p, and records what
// every RCAS returned and when.
func hotWordWorld(p model.Params, opts ...Option) (*Engine, []ptr.Ptr, [][]seen) {
	e := New(4, 1024, p, 1, opts...)
	w := e.Space().AllocLine(0)
	var log [][]seen
	for n := 1; n < 4; n++ {
		for k := 0; k < 6; k++ {
			id := len(log)
			log = append(log, nil)
			e.Spawn(n, func(ctx api.Ctx) {
				for i := 0; i < 200; i++ {
					v := ctx.RCAS(w, uint64(i%3), uint64(i%2))
					log[id] = append(log[id], seen{v, ctx.Now()})
					ctx.Work(time.Duration(i % 7))
				}
			})
		}
	}
	return e, []ptr.Ptr{w}, log
}

// TestTornRetryLeapMatchesLoop: a remote torn RCAS whose read half finds its
// word held leaps to the first retry after the hold's release, against the
// same worlds retrying every SpinPollMinNS — final clock, Events, memory
// image, NIC stats and every thread's (value, time) observations equal, under
// both executors. The worlds are tornWorld's under CX3 and under a 2 ns NIC,
// whose verbs queue up behind tears, and a hot word that eighteen remote
// threads hammer; tears run from shorter than one retry to longer than the
// verb, and a tear of exactly one retry under the fast NIC makes retries land
// on the release's instant, where the event order decides. The leap must
// dispatch no more events, and must skip retries.
func TestTornRetryLeapMatchesLoop(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	type world func(opts ...Option) (*Engine, []ptr.Ptr, [][]seen)
	var worlds []world
	for _, gap := range []int64{6, 12, 13, 24, 180, 700} {
		p, fast := model.CX3(), model.CX3()
		p.TornGapNS, fast.TornGapNS = gap, gap
		fast.NICServiceNS, fast.QPCMissPenaltyNS = 2, 0
		worlds = append(worlds, func(opts ...Option) (*Engine, []ptr.Ptr, [][]seen) { return hotWordWorld(fast, opts...) })
		for seed := int64(1); seed <= 4; seed++ {
			worlds = append(worlds,
				func(opts ...Option) (*Engine, []ptr.Ptr, [][]seen) { return tornWorldOn(seed, rcasMethod, p, opts...) },
				func(opts ...Option) (*Engine, []ptr.Ptr, [][]seen) {
					return tornWorldOn(seed, rcasMethod, fast, opts...)
				})
		}
	}
	drivers := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"windowed-2", []Option{WithShards(2)}},
		{"windowed-4", []Option{WithShards(4)}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var leapt uint64
			for i, w := range worlds {
				want, words, wantLog := w(append([]Option{withStepTorn}, d.opts...)...)
				got, _, gotLog := w(d.opts...)
				want.Run(1 << 40)
				got.Run(1 << 40)
				if w, g := fingerprint(want, words), fingerprint(got, words); w != g {
					t.Fatalf("world %d: runs ended differently\nloop: %s\nleap: %s", i, w, g)
				}
				if !reflect.DeepEqual(wantLog, gotLog) {
					t.Fatalf("world %d: threads observed different values or times", i)
				}
				if w, g := want.Events()-want.Credited(), got.Events()-got.Credited(); g > w {
					t.Fatalf("world %d: the leap dispatched %d events, the loop %d", i, g, w)
				}
				leapt += got.Credited() - want.Credited()
			}
			if leapt < 1000 {
				t.Fatalf("the leaps skipped %d retries: too few to mean anything", leapt)
			}
		})
	}
}
