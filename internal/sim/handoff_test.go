package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// flipAt sets a stop guard that says "a stop may land" from the k-th barrier
// on (k = 0: before the first window) and fails t if it is asked about a window
// other than the lookahead. It returns the Resumes() of every barrier the
// guard sees.
func flipAt(t *testing.T, e *Engine, k int) *[]uint64 {
	var resumes []uint64
	e.SetStopGuard(func(window int64) bool {
		if window != e.lookahead {
			t.Errorf("the guard was asked about a %d ns window, the lookahead is %d ns", window, e.lookahead)
		}
		resumes = append(resumes, e.Resumes())
		return len(resumes) > k
	})
	return &resumes
}

// runLog is what a test sees of one run: the events popped per destination
// shard — a shard's events are popped in one order whichever worker owns it —
// and, under the serial loop, Resumes() before each pop.
type runLog struct {
	pops    [][]popSeen
	resumes []popResumes
}

type popResumes struct {
	at      int64
	resumes uint64
}

// serialLoop drains e on the ProcessNextEvent loop, logging every pop.
func (l *runLog) serialLoop(e *Engine) {
	for e.HasPendingEvents() {
		ev := e.tl.q.min()
		l.pops[ev.dest()] = append(l.pops[ev.dest()], popSeen{ev.at, ev.seq, ev.th.id, ev.kind})
		l.resumes = append(l.resumes, popResumes{ev.at, e.Resumes()})
		e.ProcessNextEvent()
	}
}

// resumesBefore is the run's Resumes() before its first pop at or after at.
func (l *runLog) resumesBefore(at int64, final uint64) uint64 {
	for _, r := range l.resumes {
		if r.at >= at {
			return r.resumes
		}
	}
	return final
}

// drive is Run spelled out so that every pop is seen: the windowed executor
// until its guard hands over (if e has workers), the serial loop after it.
// It panics like Run if a thread is left.
func drive(e *Engine, horizon int64) *runLog {
	l := &runLog{pops: make([][]popSeen, len(e.shards))}
	e.SetHorizon(horizon)
	if e.workers > 0 {
		e.onWindowEvent = func(s *shard, ev event) { // each shard's list is its owner's alone
			l.pops[s.node] = append(l.pops[s.node], popSeen{ev.at, ev.seq, ev.th.id, ev.kind})
		}
		e.runWindowed()
		e.onWindowEvent = nil
	}
	l.serialLoop(e)
	for _, th := range e.threads {
		if !th.exited {
			panic(fmt.Sprintf("thread %d blocked forever after the handoff", th.id))
		}
	}
	return l
}

// splitAt cuts a shard's pops at the first one at or after at. (An event's
// key is its issue time, thread and kind, so the tail's keys are the serial
// loop's whichever executor scheduled what.)
func splitAt(pops []popSeen, at int64) (before, after []popSeen) {
	for i, p := range pops {
		if p.at >= at {
			return pops[:i], pops[i:]
		}
	}
	return pops, nil
}

// boundaryPops checks that after, the events one shard popped after the
// handoff, is the serial loop's list want plus events the serial loop advanced
// in place instead: at most one per thread, a wake-up, and that thread's first
// event after the handoff — a thread whose next operation ended past the last
// window had to schedule it, where the serial loop could find nothing ahead
// of it. It returns how many there were, or -1 if after is not that.
func boundaryPops(after, want []popSeen) int {
	j, extra := 0, 0
	first := map[int]bool{}
	for _, p := range after {
		seen := first[p.th]
		first[p.th] = true
		if j < len(want) && p == want[j] {
			j++
			continue
		}
		if seen || p.kind != evWake {
			return -1
		}
		extra++
	}
	if j != len(want) {
		return -1
	}
	return extra
}

// TestStopGuardHandoffMatchesSerial: a windowed Run whose stop guard flips at
// a chosen barrier of a seeded world hands the rest of the run to the serial
// loop, and the whole is exact at one, two and four workers, with the handoff
// before the first window, mid-run and never:
//
//   - the clock, Events, the memory image, NIC stats and every call of every
//     WorkLoop function (the instants the threads saw) equal the plain
//     ProcessNextEvent loop's;
//   - every event popped before the handoff, on every shard, is the one the
//     guard-free windowed run popped, and every event popped after it is the
//     one the serial loop popped from that instant on (time, thread, kind, in
//     order) — but for the wake-ups of operations that ended past the last
//     window, which the serial loop may have advanced in place (which executor
//     advances a thread in place, and so pops and resumes it, is the one thing
//     the two executors may do differently; boundaryPops);
//   - Resumes is the windowed run's at that barrier plus the serial loop's from
//     that instant on, plus at most one per such wake-up;
//   - Run and the spelled-out loops agree, and WindowStats says where the
//     handoff was and how much the serial loop ran.
func TestStopGuardHandoffMatchesSerial(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, width := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			midRun := 0
			for seed := int64(1); seed <= 12; seed++ {
				k := int(seed*7) % 30
				if seed%8 == 0 {
					k = 1 << 30 // never
				}
				serial, words, horizon, wantLogs := loopWorld(seed, loopMethod, false)
				ref := drive(serial, horizon)

				windowed, _, _, _ := loopWorld(seed, loopMethod, false, WithShards(width))
				barrierResumes := flipAt(t, windowed, 1<<30)
				free := drive(windowed, horizon)

				handed, _, _, gotLogs := loopWorld(seed, loopMethod, false, WithShards(width))
				flipAt(t, handed, k)
				got := drive(handed, horizon)

				run, _, _, _ := loopWorld(seed, loopMethod, false, WithShards(width))
				flipAt(t, run, k)
				run.Run(horizon)

				want := fingerprint(serial, words)
				for name, e := range map[string]*Engine{"spelled-out": handed, "Run": run, "guard-free": windowed} {
					if g := fingerprint(e, words); g != want {
						t.Fatalf("seed %d, flip at barrier %d (%s): the run ended differently\nserial:  %s\nhandoff: %s", seed, k, name, want, g)
					}
				}
				if !reflect.DeepEqual(wantLogs, gotLogs) {
					t.Fatalf("seed %d, flip at barrier %d: the loops' functions were called differently", seed, k)
				}
				ws, hs := run.WindowStats(), handed.WindowStats()
				if handed.Resumes() != run.Resumes() || hs.Windows != ws.Windows || hs.Events != ws.Events || hs.HandoffAt != ws.HandoffAt {
					t.Fatalf("seed %d, flip at barrier %d: Run and the spelled-out loops differ: %d / %d resumes, %+v / %+v", seed, k, run.Resumes(), handed.Resumes(), ws, hs)
				}

				at := int64(1) << 62 // no handoff: everything is the windowed run's
				wantResumes, boundary := windowed.Resumes(), 0
				if ws.SerialEvents > 0 {
					at = ws.HandoffAt
					wantResumes = (*barrierResumes)[ws.Windows] + serial.Resumes() - ref.resumesBefore(at, serial.Resumes())
				}
				for s := range got.pops {
					gotWin, gotSer := splitAt(got.pops[s], at)
					wantWin, _ := splitAt(free.pops[s], at)
					_, wantSer := splitAt(ref.pops[s], at)
					if !reflect.DeepEqual(gotWin, wantWin) {
						t.Fatalf("seed %d, flip at barrier %d: shard %d popped different events before the handoff at %d ns than the guard-free windowed run", seed, k, s, at)
					}
					n := boundaryPops(gotSer, wantSer)
					if n < 0 {
						t.Fatalf("seed %d, flip at barrier %d: shard %d popped different events after the handoff at %d ns than the serial loop", seed, k, s, at)
					}
					boundary += n
				}
				if r := run.Resumes(); r < wantResumes || r > wantResumes+uint64(boundary) {
					t.Fatalf("seed %d, flip at barrier %d: %d resumes, want %d (windowed up to the handoff, serial after it) plus at most %d", seed, k, r, wantResumes, boundary)
				}

				if ws.Events+ws.SerialEvents+ws.Credited != run.Events() {
					t.Errorf("seed %d: %d windowed + %d serial events + %d credited blocks, the run counted %d", seed, ws.Events, ws.SerialEvents, ws.Credited, run.Events())
				}
				switch {
				case k == 0:
					if ws.Windows != 0 || ws.SerialEvents+ws.Credited != run.Events() {
						t.Errorf("seed %d: a guard that says yes at once still ran %d windows (%d serial events and %d credited blocks of %d)", seed, ws.Windows, ws.SerialEvents, ws.Credited, run.Events())
					}
				case ws.SerialEvents > 0: // the guard said yes with events pending
					if ws.Windows != uint64(k) || ws.HandoffAt <= 0 {
						t.Errorf("seed %d: flipped at barrier %d, handed off after %d windows at %d ns", seed, k, ws.Windows, ws.HandoffAt)
					}
					midRun++
				case ws.Windows > uint64(k) || ws.HandoffAt != 0:
					t.Errorf("seed %d: flipped at barrier %d, ran %d windows and handed off at %d ns with no serial event", seed, k, ws.Windows, ws.HandoffAt)
				}
			}
			if midRun < 6 {
				t.Errorf("%d of 12 worlds handed off mid-run: too few to mean anything", midRun)
			}
		})
	}
}

// TestStopGuardHandoffAllVerbPaths: the same on the workload that exercises
// every verb path (torn remote and loopback CAS, remote reads and writes,
// local traffic), flipped at several barriers: the serial loop's fingerprint,
// and the shard queues empty after the Run.
func TestStopGuardHandoffAllVerbPaths(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const horizon = 300_000
	want := runMode(t, 4, 3, horizon)
	for _, width := range []int{1, 2, 4} {
		for _, k := range []int{0, 1, 9, 120} {
			e, words := shardedWorkload(4, 3, WithShards(width))
			flipAt(t, e, k)
			e.Run(horizon)
			if got := fingerprint(e, words); got != want {
				t.Errorf("width %d, flip at barrier %d:\n serial:  %s\n handoff: %s", width, k, want, got)
			}
			if e.pending() != 0 || !shardQueuesEmpty(e) {
				t.Errorf("width %d, flip at barrier %d: events left behind", width, k)
			}
			if ws := e.WindowStats(); ws.Windows != uint64(k) || (k > 0) != (ws.HandoffAt > 0) || ws.SerialEvents == 0 {
				t.Errorf("width %d, flip at barrier %d: %d windows, handoff at %d ns, %d serial events", width, k, ws.Windows, ws.HandoffAt, ws.SerialEvents)
			}
		}
	}
}

// TestStopGuardCatchesUnsoundBound: a RequestStop from a thread inside a window
// — one the guard cleared, a guard whose bound is wrong, or any window of a
// Run with no guard — panics on the driver, naming the thread and the guard,
// after every coroutine is unwound and every helper joined, at one, two and
// four workers.
func TestStopGuardCatchesUnsoundBound(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, c := range []struct {
		width   int
		guarded bool
	}{{1, true}, {2, true}, {4, true}, {1, false}, {2, false}} {
		width := c.width
		t.Run(fmt.Sprintf("width-%d/guarded-%v", width, c.guarded), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(3, 1024, model.CX3(), 1, WithShards(width))
			var unwound atomic.Int32 // bodies on helper-owned shards unwind there
			for n := 0; n < 3; n++ {
				w := e.Space().AllocLine(n)
				e.Spawn(n, func(ctx api.Ctx) {
					defer unwound.Add(1)
					for {
						ctx.RRead(w)
						ctx.Pause(1)
					}
				})
			}
			e.Spawn(2, func(ctx api.Ctx) { // thread 3
				ctx.Work(20 * time.Microsecond)
				e.RequestStop()
			})
			asked := 0
			if c.guarded {
				e.SetStopGuard(func(int64) bool { asked++; return false })
			}
			msg := fmt.Sprint(recovered(func() { e.Run(1 << 40) }))
			if !strings.Contains(msg, "thread 3 panicked") || !strings.Contains(msg, "stop guard") {
				t.Fatalf("the stop inside a window did not reach the driver as thread 3's: %.200s", msg)
			}
			if c.guarded && asked == 0 {
				t.Error("the guard was never asked")
			}
			if unwound.Load() != 3 {
				t.Errorf("%d of 3 polling bodies were unwound", unwound.Load())
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("goroutines leaked across the trap: %d before New, %d after", before, after)
			}
		})
	}
}
