package rt_test

import (
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/locks"
	"alock/internal/ptr"
	"alock/internal/rt"
)

func TestBasicOps(t *testing.T) {
	e := rt.New(2, 1<<12, rt.Config{}, 1)
	done := make(chan struct{})
	e.Spawn(0, func(ctx api.Ctx) {
		defer close(done)
		w := ctx.Alloc(8, 8)
		ctx.Write(w, 5)
		if ctx.Read(w) != 5 {
			t.Error("Read after Write")
		}
		if prev := ctx.CAS(w, 5, 6); prev != 5 {
			t.Errorf("CAS prev = %d", prev)
		}
		if prev := ctx.CAS(w, 5, 7); prev != 6 {
			t.Errorf("failed CAS prev = %d", prev)
		}
		ctx.RWrite(w, 9)
		if ctx.RRead(w) != 9 {
			t.Error("RRead after RWrite")
		}
		if prev := ctx.RCAS(w, 9, 10); prev != 9 {
			t.Errorf("RCAS prev = %d", prev)
		}
		ctx.Free(w)
	})
	e.Wait()
	<-done
}

func TestConcurrentCASIncrement(t *testing.T) {
	e := rt.New(1, 1<<12, rt.Config{}, 1)
	w := e.Space().AllocLine(0)
	const workers, per = 8, 2000
	for i := 0; i < workers; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			for k := 0; k < per; k++ {
				for it := 0; ; it++ {
					old := ctx.Read(w)
					if ctx.CAS(w, old, old+1) == old {
						break
					}
					ctx.Pause(it)
				}
			}
		})
	}
	e.Wait()
	if got := atomic.LoadUint64(e.Space().WordAddr(w)); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestThreadIdentity(t *testing.T) {
	e := rt.New(3, 1<<10, rt.Config{}, 1)
	ids := make(chan int, 6)
	for n := 0; n < 3; n++ {
		n := n
		for k := 0; k < 2; k++ {
			e.Spawn(n, func(ctx api.Ctx) {
				if ctx.NodeID() != n {
					t.Errorf("NodeID = %d, want %d", ctx.NodeID(), n)
				}
				ids <- ctx.ThreadID()
			})
		}
	}
	e.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate thread id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d ids, want 6", len(seen))
	}
}

func TestStopFlag(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{}, 1)
	var loops atomic.Int64
	e.Spawn(0, func(ctx api.Ctx) {
		for !ctx.Stopped() {
			loops.Add(1)
			ctx.Pause(100)
		}
	})
	time.Sleep(10 * time.Millisecond)
	e.Stop()
	e.Wait()
	if loops.Load() == 0 {
		t.Fatal("thread never ran")
	}
}

// TestTornRCASWindow shows the Table 1 hazard deterministically on the
// real-time engine: a remote CAS with a long torn window is clobbered by a
// local write that lands inside it.
func TestTornRCASWindow(t *testing.T) {
	e := rt.New(2, 1<<10, rt.Config{TornRCAS: true, TornGap: 80 * time.Millisecond}, 1)
	w := e.Space().AllocLine(0)
	inWindow := make(chan struct{})
	e.Spawn(1, func(ctx api.Ctx) { // remote thread
		close(inWindow) // the RCAS below reads ~immediately, then waits the gap
		prev := ctx.RCAS(w, 0, 500)
		if prev != 0 {
			t.Errorf("RCAS read %d, expected stale 0", prev)
		}
	})
	e.Spawn(0, func(ctx api.Ctx) { // local thread on w's node
		<-inWindow
		time.Sleep(20 * time.Millisecond) // safely inside the 80ms window
		ctx.Write(w, 7)
	})
	e.Wait()
	final := atomic.LoadUint64(e.Space().WordAddr(w))
	if final != 500 {
		t.Fatalf("final = %d; torn RCAS should have clobbered the local write with 500", final)
	}
}

// TestTornRemoteRemoteAtomic: remote RMWs stay atomic with each other even
// in torn mode (the responder serializes them).
func TestTornRemoteRemoteAtomic(t *testing.T) {
	e := rt.New(2, 1<<10, rt.Config{TornRCAS: true, TornGap: 50 * time.Microsecond}, 1)
	w := e.Space().AllocLine(0)
	const workers, per = 4, 200
	for i := 0; i < workers; i++ {
		e.Spawn(1, func(ctx api.Ctx) {
			for k := 0; k < per; k++ {
				for it := 0; ; it++ {
					old := ctx.RRead(w)
					if ctx.RCAS(w, old, old+1) == old {
						break
					}
					ctx.Pause(it)
				}
			}
		})
	}
	e.Wait()
	if got := atomic.LoadUint64(e.Space().WordAddr(w)); got != workers*per {
		t.Fatalf("counter = %d, want %d (remote-remote atomicity lost)", got, workers*per)
	}
}

// mutexRun exercises a lock provider on the rt engine with real
// parallelism; the plain (non-atomic) counter relies on the lock for both
// mutual exclusion and the happens-before edges the race detector checks.
func mutexRun(t *testing.T, prov locks.Provider, nodes, threadsPerNode, iters int) {
	t.Helper()
	e := rt.New(nodes, 1<<18, rt.Config{}, 7)
	lockP := e.Space().AllocLine(0)
	prov.Prepare(e.Space(), []ptr.Ptr{lockP})
	counter := 0 // deliberately unsynchronized: protected only by the lock
	for n := 0; n < nodes; n++ {
		for k := 0; k < threadsPerNode; k++ {
			e.Spawn(n, func(ctx api.Ctx) {
				h := api.NewBlocking(prov.NewHandle(ctx))
				for i := 0; i < iters; i++ {
					h.Lock(lockP)
					counter++
					h.Unlock(lockP)
				}
			})
		}
	}
	e.Wait()
	if want := nodes * threadsPerNode * iters; counter != want {
		t.Fatalf("%s: counter = %d, want %d", prov.Name(), counter, want)
	}
}

func TestALockRealParallelism(t *testing.T) {
	mutexRun(t, locks.NewALockProvider(), 2, 4, 800)
}

func TestALockRealParallelismSingleNode(t *testing.T) {
	mutexRun(t, locks.NewALockProvider(), 1, 8, 800)
}

func TestALockRealParallelismTinyBudgets(t *testing.T) {
	prov := &locks.ALockProvider{Cfg: core.Config{LocalBudget: 1, RemoteBudget: 1}}
	mutexRun(t, prov, 2, 3, 500)
}

func TestMCSRealParallelism(t *testing.T) {
	mutexRun(t, locks.MCSProvider{}, 2, 4, 800)
}

func TestSpinlockRealParallelism(t *testing.T) {
	mutexRun(t, locks.SpinProvider{}, 2, 4, 500)
}

// tokenMutexRun is mutexRun through the acquisition-token API: the shared
// FenceTable and the per-acquisition descriptor paths run under real
// goroutines, so the race detector checks the whole token layer.
func tokenMutexRun(t *testing.T, prov locks.Provider, nodes, threadsPerNode, iters int) {
	t.Helper()
	e := rt.New(nodes, 1<<18, rt.Config{}, 7)
	lockP := e.Space().AllocLine(0)
	prov.Prepare(e.Space(), []ptr.Ptr{lockP})
	ft := locks.NewFenceTable()
	counter := 0 // deliberately unsynchronized: protected only by the lock
	fenced := uint64(0)
	for n := 0; n < nodes; n++ {
		for k := 0; k < threadsPerNode; k++ {
			e.Spawn(n, func(ctx api.Ctx) {
				h := locks.TokenHandleFor(prov, ctx, ft)
				for i := 0; i < iters; i++ {
					g, _ := h.Acquire(lockP, api.Exclusive, api.AcquireOpts{})
					counter++
					if h.Release(g) != api.Released {
						atomic.AddUint64(&fenced, 1)
					}
				}
			})
		}
	}
	e.Wait()
	if want := nodes * threadsPerNode * iters; counter != want {
		t.Fatalf("%s: counter = %d, want %d", prov.Name(), counter, want)
	}
	if fenced != 0 {
		t.Fatalf("%s: %d live releases fenced", prov.Name(), fenced)
	}
}

func TestTokenAPIRealParallelism(t *testing.T) {
	tokenMutexRun(t, locks.NewALockProvider(), 2, 4, 600)
}

func TestTokenAPIRealParallelismTimedMCS(t *testing.T) {
	tokenMutexRun(t, locks.MCSProvider{Timed: true}, 2, 4, 600)
}

// TestTokenOverlapRealParallelism: overlapping holds of two locks under
// real goroutines — per-acquisition descriptors with the race detector
// watching the protected counters.
func TestTokenOverlapRealParallelism(t *testing.T) {
	e := rt.New(2, 1<<18, rt.Config{}, 11)
	la := e.Space().AllocLine(0)
	lb := e.Space().AllocLine(1)
	prov := locks.NewALockProvider()
	prov.Prepare(e.Space(), []ptr.Ptr{la, lb})
	ft := locks.NewFenceTable()
	ca, cb := 0, 0
	const threads, iters = 6, 400
	for i := 0; i < threads; i++ {
		e.Spawn(i%2, func(ctx api.Ctx) {
			h := locks.TokenHandleFor(prov, ctx, ft)
			for k := 0; k < iters; k++ {
				ga, _ := h.Acquire(la, api.Exclusive, api.AcquireOpts{})
				gb, _ := h.Acquire(lb, api.Exclusive, api.AcquireOpts{})
				ca++
				cb++
				if k%2 == 0 {
					h.Release(gb)
					h.Release(ga)
				} else {
					h.Release(ga)
					h.Release(gb)
				}
			}
		})
	}
	e.Wait()
	if want := threads * iters; ca != want || cb != want {
		t.Fatalf("counters = %d/%d, want %d", ca, cb, want)
	}
}

func TestALockManyLocksRealParallelism(t *testing.T) {
	e := rt.New(2, 1<<18, rt.Config{}, 9)
	const nLocks = 16
	lockPs := make([]ptr.Ptr, nLocks)
	counters := make([]int, nLocks)
	for i := range lockPs {
		lockPs[i] = e.Space().AllocLine(i % 2)
	}
	prov := locks.NewALockProvider()
	const threads, iters = 8, 600
	for i := 0; i < threads; i++ {
		e.Spawn(i%2, func(ctx api.Ctx) {
			h := api.NewBlocking(prov.NewHandle(ctx))
			for k := 0; k < iters; k++ {
				li := ctx.Rand().Intn(nLocks)
				h.Lock(lockPs[li])
				counters[li]++
				h.Unlock(lockPs[li])
			}
		})
	}
	e.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != threads*iters {
		t.Fatalf("total = %d, want %d", total, threads*iters)
	}
}

func TestWorkDurations(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{}, 1)
	done := make(chan struct{})
	e.Spawn(0, func(ctx api.Ctx) {
		defer close(done)
		t0 := time.Now()
		ctx.Work(100 * time.Microsecond) // short: spin path
		if time.Since(t0) < 90*time.Microsecond {
			t.Error("short Work returned early")
		}
		t1 := time.Now()
		ctx.Work(25 * time.Millisecond) // long: sleep path
		if time.Since(t1) < 20*time.Millisecond {
			t.Error("long Work returned early")
		}
		ctx.Work(0)  // no-op
		ctx.Work(-1) // no-op
	})
	e.Wait()
	<-done
}

func TestPauseAllTiers(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{}, 1)
	e.Spawn(0, func(ctx api.Ctx) {
		for _, iter := range []int{0, 2, 10, 100, 1000} {
			ctx.Pause(iter) // busy / Gosched / sleep tiers must all return
		}
	})
	e.Wait()
}

func TestNowMonotonic(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{}, 1)
	e.Spawn(0, func(ctx api.Ctx) {
		a := ctx.Now()
		ctx.Work(time.Millisecond)
		b := ctx.Now()
		if b <= a {
			t.Errorf("Now not monotonic: %d then %d", a, b)
		}
	})
	e.Wait()
}

func TestRemoteDelayInjection(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{RemoteDelay: 200 * time.Microsecond}, 1)
	w := e.Space().AllocLine(0)
	e.Spawn(0, func(ctx api.Ctx) {
		t0 := time.Now()
		for i := 0; i < 5; i++ {
			ctx.RRead(w)
		}
		if elapsed := time.Since(t0); elapsed < 900*time.Microsecond {
			t.Errorf("5 delayed verbs took only %v", elapsed)
		}
	})
	e.Wait()
}

func TestSpawnBadNodePanics(t *testing.T) {
	e := rt.New(2, 1<<10, rt.Config{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn(9) did not panic")
		}
	}()
	e.Spawn(9, func(api.Ctx) {})
}

func TestRandStreamsDiffer(t *testing.T) {
	e := rt.New(1, 1<<10, rt.Config{}, 1)
	vals := make(chan int64, 2)
	for i := 0; i < 2; i++ {
		e.Spawn(0, func(ctx api.Ctx) { vals <- ctx.Rand().Int63() })
	}
	e.Wait()
	close(vals)
	var got []int64
	for v := range vals {
		got = append(got, v)
	}
	if got[0] == got[1] {
		t.Fatal("two threads share an identical random stream")
	}
}
