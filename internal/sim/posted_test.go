package sim

import (
	"fmt"
	"math/rand"
	"reflect"
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
// observations equal, under both executors, with strictly fewer resumes.
func TestPostedOpsMatchSynchronous(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	drivers := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"windowed", []Option{WithShards(4)}},
		{"audit", []Option{WithAccessAudit()}},
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
		e.SetHorizon(1 << 40)
		for e.Now() < 5_000 {
			e.Step()
		}
		e.SetHorizon(7_013)
		for e.Step() {
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
			e := New(2, 1024, model.CX3(), 1, append([]Option{WithAccessAudit()}, d.opts...)...)
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
			e.curShard.Store(auditIdle) // Step, unlike Run, leaves the auditor armed
			if got := *e.Space().WordAddr(mine); got != 5 {
				t.Errorf("the Write posted ahead of the bad one left %d, want 5", got)
			}
			if got := *e.Space().WordAddr(theirs); got != 0 {
				t.Errorf("the audited Write reached node 1's word: %d", got)
			}
		})
	}
}
