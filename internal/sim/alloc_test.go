package sim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/slots"
)

// TestScheduleStepZeroAllocs is the allocation guard on the engine's
// schedule/pop hot path: once the event slice has grown to its working
// size, processing an event — heap pop, accounting, the coroutine switch
// and the re-schedule on the next block — must not allocate. The old
// container/heap queue boxed every event into an interface{} on push and
// pop, one heap allocation per scheduled event; this test keeps it gone.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := New(1, 1024, model.Uniform(10), 1)
	for i := 0; i < 4; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.Work(10 * time.Nanosecond)
			}
		})
	}
	e.setHorizon(1 << 40)
	// Warm up: launch goroutines, grow the event slice to steady state.
	for i := 0; i < 256; i++ {
		e.processNextEvent()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !e.processNextEvent() {
			t.Fatal("engine drained mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("schedule/pop path allocates %.3f allocs/event, want 0", avg)
	}
	e.RequestStop()
	for e.processNextEvent() {
	}
}

// TestWorkLoopTickZeroAllocs: a turn of a WorkLoop — pop, the function's look
// on the executor, the re-arm — allocates nothing and switches to no thread.
func TestWorkLoopTickZeroAllocs(t *testing.T) {
	e := New(1, 1024, model.Uniform(10), 1)
	for i := 0; i < 4; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.WorkLoop(func(_ int64, stopped bool) (time.Duration, bool) {
				return 10 * time.Nanosecond, !stopped
			})
		})
	}
	e.setHorizon(1 << 40)
	for i := 0; i < 256; i++ {
		e.processNextEvent()
	}
	resumes := e.Resumes()
	avg := testing.AllocsPerRun(2000, func() {
		if !e.processNextEvent() {
			t.Fatal("engine drained mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("a WorkLoop turn allocates %.3f allocs/event, want 0", avg)
	}
	if got := e.Resumes(); got != resumes {
		t.Fatalf("2000 turns resumed coroutines %d times, want 0", got-resumes)
	}
	e.RequestStop()
	for e.processNextEvent() {
	}
}

// TestSpinUntilPollZeroAllocs: a woken SpinUntil poll — a store's wake of the
// parked waiter, its pop, the skipped blocks' credit, the read, done's look on
// the executor and the park on the value it read — allocates nothing and
// switches to no waiter. A writer keeps storing values done turns down.
func TestSpinUntilPollZeroAllocs(t *testing.T) {
	const end = math.MaxUint64 // the one value done takes
	e := New(1, 1024, model.Uniform(10), 1)
	var words []ptr.Ptr
	var waiters []*Thread
	for i := 0; i < 4; i++ {
		w := e.Space().AllocLine(0)
		words = append(words, w)
		waiters = append(waiters, e.Spawn(0, func(ctx api.Ctx) {
			ctx.SpinUntil(w, 0, 0, func(v uint64, _ bool) bool { return v == end })
		}))
	}
	e.Spawn(0, func(ctx api.Ctx) {
		for v := uint64(1); !ctx.Stopped(); v++ {
			for _, w := range words {
				ctx.Write(w, v)
			}
			ctx.Work(300 * time.Nanosecond)
		}
		for _, w := range words {
			ctx.Write(w, end)
		}
	})
	e.setHorizon(1 << 40)
	for i := 0; i < 256; i++ {
		e.processNextEvent()
	}
	resumes := func() (n uint64) {
		for _, th := range waiters {
			n += th.resumes
		}
		return n
	}
	before, credited := resumes(), e.Credited()
	avg := testing.AllocsPerRun(2000, func() {
		if !e.processNextEvent() {
			t.Fatal("engine drained mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("a woken SpinUntil poll allocates %.3f allocs/event, want 0", avg)
	}
	if got := resumes(); got != before {
		t.Fatalf("2000 events resumed the waiters %d times, want 0", got-before)
	}
	if e.Credited() == credited {
		t.Fatal("2000 events credited no skipped block: the waiters did not park")
	}
	e.RequestStop()
	for e.processNextEvent() {
	}
}

// TestDirectRunNearZeroAllocs bounds Run, the processNextEvent loop: a
// contended run processing tens of thousands of events may allocate only
// its fixed setup (goroutine launches) — not per event.
func TestDirectRunNearZeroAllocs(t *testing.T) {
	e, _ := contendedEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(2_000_000)
	runtime.ReadMemStats(&after)
	events := e.Events()
	if events < 10_000 {
		t.Fatalf("run too small to measure: %d events", events)
	}
	allocs := after.Mallocs - before.Mallocs
	// Launching 4 goroutines and the harness of ReadMemStats itself cost a
	// fixed few dozen allocations; per-event allocation would show up as
	// tens of thousands.
	if allocs > 500 {
		t.Fatalf("direct Run allocated %d times over %d events (%.4f allocs/event), want O(setup)",
			allocs, events, float64(allocs)/float64(events))
	}
}

// TestWindowPoolDispatchZeroAllocs guards the windowed executor's
// per-window cost: handing every shard to its owner, publishing the window
// to two helpers and collecting their done words must not allocate. The
// test sets the slot budget, so the pool gets both helpers on any host.
func TestWindowPoolDispatchZeroAllocs(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	e := New(4, 64, model.Uniform(10), 1)
	pool := newWindowPool(e, 3, false)
	defer pool.close()
	if pool.width != 3 {
		t.Fatalf("pool of %d workers, want 3", pool.width)
	}
	window := func() {
		for _, s := range e.shards { // queues empty: dispatch cost only
			pool.activate(s, 0)
		}
		pool.runWindow()
	}
	window() // warm: helpers are up and have made their wake channels
	avg := testing.AllocsPerRun(2000, window)
	if avg != 0 {
		t.Fatalf("window dispatch allocates %.3f allocs/window, want 0", avg)
	}
}
