package sim

import (
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
	e.SetHorizon(1 << 40)
	// Warm up: launch goroutines, grow the event slice to steady state.
	for i := 0; i < 256; i++ {
		e.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !e.ProcessNextEvent() {
			t.Fatal("engine drained mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("schedule/pop path allocates %.3f allocs/event, want 0", avg)
	}
	e.RequestStop()
	for e.Step() {
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
	e.SetHorizon(1 << 40)
	for i := 0; i < 256; i++ {
		e.Step()
	}
	resumes := e.Resumes()
	avg := testing.AllocsPerRun(2000, func() {
		if !e.ProcessNextEvent() {
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
	for e.Step() {
	}
}

// TestSpinUntilPollZeroAllocs: a failed SpinUntil poll — pop, the read, done's
// look on the executor, the back-off's re-arm, its pop, the next read's —
// allocates nothing and switches to no thread.
func TestSpinUntilPollZeroAllocs(t *testing.T) {
	e := New(1, 1024, model.Uniform(10), 1)
	var words []ptr.Ptr
	for i := 0; i < 4; i++ {
		w := e.Space().AllocLine(0)
		words = append(words, w)
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.SpinUntil(w, 0, func(v uint64, _ int64) bool { return v != 0 })
		})
	}
	e.SetHorizon(1 << 40)
	for i := 0; i < 256; i++ {
		e.Step()
	}
	resumes := e.Resumes()
	avg := testing.AllocsPerRun(2000, func() {
		if !e.ProcessNextEvent() {
			t.Fatal("engine drained mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("a SpinUntil poll allocates %.3f allocs/event, want 0", avg)
	}
	if got := e.Resumes(); got != resumes {
		t.Fatalf("2000 poll events resumed coroutines %d times, want 0", got-resumes)
	}
	for _, w := range words { // between Steps the memory is the driver's: end the waits
		*e.Space().WordAddr(w) = 1
	}
	for e.Step() {
	}
}

// TestDirectRunNearZeroAllocs bounds Run, the ProcessNextEvent loop: a
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
