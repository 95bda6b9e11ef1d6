package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// trapDrivers are the three ways a caller drives an engine; every trap must
// surface the same way through each.
var trapDrivers = []struct {
	name  string
	opts  []Option
	drive func(e *Engine)
}{
	{"serial-run", nil, func(e *Engine) { e.Run(1 << 40) }},
	{"step", nil, func(e *Engine) {
		e.SetHorizon(1 << 40)
		for e.Step() {
		}
	}},
	{"windowed-run", []Option{WithShards(2)}, func(e *Engine) { e.Run(1 << 40) }},
}

// recovered runs drive on the calling goroutine and returns what it
// panicked with. The recover sits on this goroutine, so a non-nil result
// proves the panic was raised on the goroutine driving the engine.
func recovered(drive func()) (r any) {
	defer func() { r = recover() }()
	drive()
	return nil
}

// spinners spawns one thread per node that polls forever, each with a
// deferred counter bump so the test can see its body unwound.
func spinners(e *Engine, nodes int, unwound *int) {
	for n := 0; n < nodes; n++ {
		e.Spawn(n, func(ctx api.Ctx) {
			defer func() { *unwound++ }()
			for {
				ctx.Pause(1)
			}
		})
	}
}

// TestThreadPanicSurfacesOnDriver: a panic in a thread's body is re-raised
// on the goroutine that drives the engine, names the thread and carries the
// original value — under serial Run, the step primitives and windowed Run.
func TestThreadPanicSurfacesOnDriver(t *testing.T) {
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			e := New(2, 1024, model.CX3(), 1, d.opts...)
			w := e.Space().AllocLine(0)
			e.Spawn(0, func(ctx api.Ctx) {
				for !ctx.Stopped() {
					ctx.Read(w)
				}
			})
			e.Spawn(1, func(ctx api.Ctx) { // thread 1
				for i := 0; i < 20; i++ {
					ctx.RRead(w)
				}
				panic("boom-4242")
			})
			r := recovered(func() { d.drive(e) })
			if r == nil {
				t.Fatal("body panic did not reach the driving goroutine")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "thread 1 panicked") || !strings.Contains(msg, "boom-4242") {
				t.Fatalf("panic does not name the thread and its value: %.200s", msg)
			}
		})
	}
}

// settleGoroutines waits for the goroutine count to drop to want. A windowed
// Run joins its pool helpers before it returns or panics, but a goroutine
// that has passed its last statement is still counted until the runtime has
// recycled it.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestTrapStopsThreadGoroutines: a trapped engine used to park every other
// thread's goroutine forever. Every trap path now unwinds the unfinished
// threads (their defers run) before panicking on the driver, so the
// goroutine count returns to what it was before New.
func TestTrapStopsThreadGoroutines(t *testing.T) {
	restore := slots.SetCapacity(8) // windowed runs get real helper goroutines
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name+"/event-budget", func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(2, 1024, model.Uniform(10), 1, append([]Option{WithMaxEvents(200)}, d.opts...)...)
			unwound := 0
			spinners(e, 2, &unwound)
			r := recovered(func() { d.drive(e) })
			if r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
				t.Fatalf("runaway simulation did not trap: %v", r)
			}
			if unwound != 2 {
				t.Errorf("%d of 2 spinning bodies were unwound", unwound)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("goroutines leaked across an event-budget trap: %d before New, %d after", before, after)
			}
		})
		t.Run(d.name+"/parked-mid-spin", func(t *testing.T) {
			// The spinners are inside SpinWhile with the executor stepping
			// their loops: stopThreads reaches them through the same suspend.
			before := runtime.NumGoroutine()
			e := New(2, 1024, model.Uniform(10), 1, append([]Option{WithMaxEvents(200)}, d.opts...)...)
			unwound := 0
			var parked []*Thread
			for n := 0; n < 2; n++ {
				w := e.Space().AllocLine(n)
				parked = append(parked, e.Spawn(n, func(ctx api.Ctx) {
					defer func() { unwound++ }()
					ctx.SpinWhile(w, 0, 0)
				}))
				e.Spawn(n, func(ctx api.Ctx) { // keeps the spinner's blocks off the inline path
					for {
						ctx.Work(5)
					}
				})
			}
			r := recovered(func() { d.drive(e) })
			if r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
				t.Fatalf("runaway simulation did not trap: %v", r)
			}
			for _, th := range parked {
				if mid := th.nops == 1 && th.ops[th.head].kind == opSpin; !mid || th.resumes != 1 {
					t.Errorf("thread %d was not parked mid-spin at the trap (mid-spin=%v, %d resumes)", th.id, mid, th.resumes)
				}
			}
			if unwound != 2 {
				t.Errorf("%d of 2 parked spinners were unwound", unwound)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("goroutines leaked across a trap with threads parked mid-spin: %d before New, %d after", before, after)
			}
		})
		t.Run(d.name+"/body-panic", func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(3, 1024, model.Uniform(10), 1, d.opts...)
			unwound := 0
			spinners(e, 2, &unwound)
			e.Spawn(2, func(ctx api.Ctx) {
				ctx.Work(time.Microsecond)
				panic("boom")
			})
			if r := recovered(func() { d.drive(e) }); r == nil {
				t.Fatal("body panic did not trap")
			}
			if unwound != 2 {
				t.Errorf("%d of 2 spinning bodies were unwound", unwound)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("goroutines leaked across a body panic: %d before New, %d after", before, after)
			}
		})
		for _, at := range []int{0, 5} {
			// A WorkLoop function panics: on its first look, which the thread
			// itself takes, and on a later one, taken by the executor (under
			// windowed-run, by the helper that owns node 1). Either way it is
			// thread 2's panic: raised in its body, reported on the driver.
			t.Run(fmt.Sprintf("%s/loop-func-panic-at-turn-%d", d.name, at), func(t *testing.T) {
				before := runtime.NumGoroutine()
				e := New(2, 1024, model.Uniform(10), 1, d.opts...)
				unwound, deferred := 0, false
				spinners(e, 1, &unwound)
				e.Spawn(1, func(ctx api.Ctx) { // keeps the loop's turns off the inline path
					defer func() { unwound++ }()
					for {
						ctx.Work(7)
					}
				})
				looper := e.Spawn(1, func(ctx api.Ctx) { // thread 2
					defer func() { deferred = true }()
					turn := 0
					ctx.WorkLoop(func(int64, bool) (time.Duration, bool) {
						if turn == at {
							panic("boom-in-f")
						}
						turn++
						return 30, true
					})
				})
				msg := fmt.Sprint(recovered(func() { d.drive(e) }))
				if !strings.Contains(msg, "thread 2 panicked") || !strings.Contains(msg, "boom-in-f") {
					t.Fatalf("the function's panic did not reach the driver as thread 2's: %.200s", msg)
				}
				if want := uint64(1 + min(at, 1)); looper.resumes != want {
					t.Errorf("the looping thread was resumed %d times, want %d", looper.resumes, want)
				}
				if !deferred || unwound != 2 {
					t.Errorf("looping body unwound=%v, %d of 2 other bodies unwound", deferred, unwound)
				}
				if after := settleGoroutines(before); after > before {
					t.Errorf("goroutines leaked across a WorkLoop function's panic: %d before New, %d after", before, after)
				}
			})
		}
		t.Run(d.name+"/panic-before-others-start", func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(2, 1024, model.Uniform(10), 1, d.opts...)
			e.Spawn(0, func(ctx api.Ctx) { panic("boom") }) // first event of the run
			started := 0
			for i := 0; i < 3; i++ {
				e.Spawn(0, func(ctx api.Ctx) { started++ })
			}
			if r := recovered(func() { d.drive(e) }); r == nil {
				t.Fatal("body panic did not trap")
			}
			if started != 0 {
				t.Errorf("%d threads ran after the engine trapped", started)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("never-resumed threads leaked: %d goroutines before New, %d after", before, after)
			}
		})
	}
}

// TestTrapWithOpsPosted: the event budget runs out, and a body panics, while
// threads have Write/Fence posted and their code has run ahead of them — every
// thread is unwound, no goroutine is left, and the driver gets the message, at
// the event count, it gets when every op completes before the next is issued.
func TestTrapWithOpsPosted(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, d := range trapDrivers {
		t.Run(d.name, func(t *testing.T) {
			trapped := func(wrap ctxWrap, boom bool) (*Engine, string) {
				before := runtime.NumGoroutine()
				e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(600)}, d.opts...)...)
				unwound := 0
				for n := 0; n < 2; n++ {
					w := e.Space().AllocLine(n)
					e.Spawn(n, func(raw api.Ctx) {
						defer func() { unwound++ }()
						ctx := wrap(raw)
						for {
							ctx.Write(w, 1)
							ctx.Fence()
						}
					})
					e.Spawn(n, func(ctx api.Ctx) { // keeps the loop's ops off the inline path
						for {
							ctx.Work(5)
						}
					})
				}
				if boom {
					w := e.Space().AllocLine(1)
					e.Spawn(1, func(raw api.Ctx) { // thread 4
						ctx := wrap(raw)
						ctx.Work(900)
						ctx.Write(w, 1)
						ctx.Fence()
						ctx.Now()
						ctx.Write(w.Add(1), 2)
						panic("boom-77")
					})
				}
				msg := fmt.Sprint(recovered(func() { d.drive(e) }))
				if i := strings.IndexByte(msg, '\n'); i >= 0 {
					msg = msg[:i] // drop the body's stack
				}
				if unwound != 2 {
					t.Errorf("%d of 2 looping bodies were unwound", unwound)
				}
				if after := settleGoroutines(before); after > before {
					t.Errorf("goroutines leaked across the trap: %d before New, %d after", before, after)
				}
				return e, msg
			}
			post, got := trapped(posted, false)
			sync, want := trapped(synchronous, false)
			if got != want || !strings.Contains(got, "livelock") {
				t.Errorf("event-budget trap: posted %q, synchronous %q", got, want)
			}
			sameOutcome(t, sync, post)
			if p, s := post.Resumes(), sync.Resumes(); p >= s {
				t.Errorf("the loops were not running ahead of their ops: %d resumes posted, %d synchronous", p, s)
			}
			_, got = trapped(posted, true)
			_, want = trapped(synchronous, true)
			if got != want || got != "sim: thread 4 panicked: boom-77" {
				t.Errorf("body panic: posted %q, synchronous %q", got, want)
			}
		})
	}
}

// TestWindowedTrapJoinsHelpers: the windowed executor's pool is joined on
// every way out of Run — normal return, a trap on a shard a helper owns, a
// trap on one the coordinator owns, a thread body's panic, the event budget —
// at two and at four workers: the helpers really ran (WindowStats), none is
// left spinning or parked, every thread is unwound and the goroutine count is
// back to its value before New.
func TestWindowedTrapJoinsHelpers(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const nodes = 4
	cases := []struct {
		name string
		opts []Option
		// boom is the node whose thread panics after a while, -1 for none.
		boom int
		want string
	}{
		{"returns", nil, -1, ""},
		{"body-panic-on-coordinator-shard", nil, 0, "boom-on-0"},
		{"body-panic-on-helper-shard", nil, 1, "boom-on-1"},
		{"body-panic-on-last-shard", nil, 3, "boom-on-3"},
		{"event-budget", []Option{WithMaxEvents(3000)}, -1, "livelock"},
	}
	for _, width := range []int{2, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("width-%d/%s", width, c.name), func(t *testing.T) {
				before := runtime.NumGoroutine()
				e := New(nodes, 1024, model.CX3(), 1, append([]Option{WithShards(width)}, c.opts...)...)
				w := e.Space().AllocLine(0)
				var unwound atomic.Int32 // bodies that end at the horizon do so inside parallel windows
				for n := 0; n < nodes; n++ {
					node := n
					e.Spawn(node, func(ctx api.Ctx) { // cross-shard traffic: every window has work for every worker
						defer unwound.Add(1)
						for !ctx.Stopped() {
							ctx.RRead(w)
							ctx.Pause(1)
						}
					})
					if node == c.boom {
						e.Spawn(node, func(ctx api.Ctx) {
							for i := 0; i < 50; i++ {
								ctx.RRead(w)
							}
							panic(fmt.Sprintf("boom-on-%d", node))
						})
					}
				}
				r := recovered(func() { e.Run(400_000) })
				after := settleGoroutines(before)
				switch {
				case c.want == "" && r != nil:
					t.Fatalf("Run panicked: %v", r)
				case c.want != "" && (r == nil || !strings.Contains(fmt.Sprint(r), c.want)):
					t.Fatalf("Run did not trap with %q: %.200v", c.want, r)
				}
				ws := e.WindowStats()
				if ws.Width != width || ws.Windows == 0 {
					t.Errorf("ran %d windows on %d workers, want %d workers", ws.Windows, ws.Width, width)
				}
				for wk, n := range ws.ShardWindows {
					if n == 0 {
						t.Errorf("worker %d ran no shard-window before the Run ended: %v", wk, ws.ShardWindows)
					}
				}
				if unwound.Load() != nodes {
					t.Errorf("%d of %d polling bodies ended or were unwound", unwound.Load(), nodes)
				}
				if after > before {
					t.Errorf("%d goroutines before New, %d after Run: a helper or a thread outlived it", before, after)
				}
			})
		}
	}
}
