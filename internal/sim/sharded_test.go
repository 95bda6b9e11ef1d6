package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/slots"
)

// shardedWorkload builds a cross-node traffic mix that exercises every
// verb path: remote CAS retry loops (torn on CX3), remote reads/writes,
// loopback verbs, local operations and spin backoff — across `nodes`
// nodes with `tpn` threads each, all hammering a small set of shared
// words with deterministic per-thread access patterns.
func shardedWorkload(nodes, tpn int, opts ...Option) (*Engine, []ptr.Ptr) {
	e := New(nodes, 4096, model.CX3(), 42, opts...)
	words := make([]ptr.Ptr, nodes)
	for n := 0; n < nodes; n++ {
		words[n] = e.Space().AllocLine(n)
	}
	for n := 0; n < nodes; n++ {
		for k := 0; k < tpn; k++ {
			node := n
			e.Spawn(node, func(ctx api.Ctx) {
				i := 0
				for !ctx.Stopped() {
					w := words[(ctx.ThreadID()+i)%len(words)]
					i++
					switch i % 4 {
					case 0: // contended counter increment
						for {
							old := ctx.RRead(w)
							if ctx.RCAS(w, old, old+1) == old {
								break
							}
							ctx.Pause(i % 3)
						}
					case 1:
						ctx.RWrite(w.Add(uint64(1+ctx.ThreadID()%7)), uint64(i))
					case 2:
						_ = ctx.RRead(w)
						ctx.Work(30 * time.Nanosecond)
					case 3: // own-node shared-memory traffic
						own := words[node]
						ctx.Write(own.Add(uint64(1+ctx.ThreadID()%7)), uint64(i))
						_ = ctx.Read(own)
					}
				}
			})
		}
	}
	return e, words
}

// fingerprint condenses a finished run's observable state: clock, event
// count, and every word of cluster memory.
func fingerprint(e *Engine, words []ptr.Ptr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d events=%d", e.Now(), e.Events())
	for _, w := range words {
		for off := uint64(0); off < 8; off++ {
			fmt.Fprintf(&b, " %d", *e.Space().WordAddr(w.Add(off)))
		}
	}
	for i := 0; i < e.Space().Nodes(); i++ {
		s := e.NIC(i).Stats()
		fmt.Fprintf(&b, " nic%d=%d/%d/%d", i, s.Verbs, s.QPCMisses, s.BusyNS)
	}
	return b.String()
}

// runMode builds the workload under one engine mode and returns its
// fingerprint.
func runMode(t *testing.T, nodes, tpn int, horizon int64, opts ...Option) string {
	t.Helper()
	e, words := shardedWorkload(nodes, tpn, opts...)
	e.Run(horizon)
	return fingerprint(e, words)
}

// TestShardedSerialBitIdentical: WithShards(1) is the windowed executor on
// the Run caller alone, and must land exactly where the default engine's
// serial loop does — same clock, same event count, same memory image, same
// NIC stats — having run every event inside a window, on one worker. (That
// the serial engine replays the container/heap schedule is
// TestReferenceReplaySharded.)
func TestShardedSerialBitIdentical(t *testing.T) {
	const horizon = 300_000
	serial := runMode(t, 4, 3, horizon)
	e, words := shardedWorkload(4, 3, WithShards(1))
	e.Run(horizon)
	if oneWorker := fingerprint(e, words); serial != oneWorker {
		t.Errorf("WithShards(1) diverged from the default engine:\n default:    %s\n one worker: %s", serial, oneWorker)
	}
	if ws := e.WindowStats(); ws.Width != 1 || ws.Windows == 0 || ws.Events != e.Events() || ws.SerialEvents != 0 || ws.Parks+ws.Wakes+ws.CoordParks != 0 {
		t.Errorf("WithShards(1) did not run every event in a window on the caller alone: %+v", ws)
	}
}

// shardQueuesEmpty reports whether every per-shard queue and outbox is
// empty — the invariant outside a windowed Run.
func shardQueuesEmpty(e *Engine) bool {
	for _, s := range e.shards {
		if s.own.q.len() > 0 || len(s.outbox) > 0 {
			return false
		}
	}
	return true
}

// TestStepThenWindowedRun: Step advances a WithShards(4) engine serially on
// the global queue; a following Run must scatter whatever is pending onto
// the shards, finish on the windowed executor, and land on the serial
// fingerprint — with the shard queues empty whenever no windowed Run is in
// progress.
func TestStepThenWindowedRun(t *testing.T) {
	const horizon = 300_000
	serial := runMode(t, 4, 3, horizon)

	e, words := shardedWorkload(4, 3, WithShards(4))
	windowEvents := 0
	var mu sync.Mutex
	e.onWindowEvent = func(*shard, event) {
		mu.Lock()
		windowEvents++
		mu.Unlock()
	}
	e.SetHorizon(horizon)
	for i := 0; i < 2000; i++ {
		if !e.Step() {
			t.Fatalf("run drained after %d steps; the hand-over was not exercised", i)
		}
		if !shardQueuesEmpty(e) {
			t.Fatalf("step %d left events on a shard queue outside a windowed Run", i)
		}
	}
	if e.pending() == 0 {
		t.Fatal("nothing pending on the global queue at the hand-over")
	}
	e.Run(horizon)
	if e.pending() != 0 || !shardQueuesEmpty(e) {
		t.Errorf("windowed Run left events behind: global=%d, shard queues empty=%v", e.pending(), shardQueuesEmpty(e))
	}
	if windowEvents == 0 {
		t.Error("window hook saw no events — Run did not reach the windowed executor")
	}
	if got := fingerprint(e, words); got != serial {
		t.Errorf("Step-then-Run diverged from serial:\n serial: %s\n got:    %s", serial, got)
	}
}

// TestWindowedBitIdentical: the conservative windowed executor must be
// bit-identical to serial at every worker width, with and without spare
// execution slots (zero granted helpers still runs the windowed code
// path with the coordinator doing all the work).
func TestWindowedBitIdentical(t *testing.T) {
	const horizon = 300_000
	serial := runMode(t, 4, 3, horizon)
	for _, workers := range []int{2, 4, 8} {
		got := runMode(t, 4, 3, horizon, WithShards(workers))
		if got != serial {
			t.Errorf("windowed (workers=%d) diverged from serial:\n serial:   %s\n windowed: %s", workers, got, serial)
		}
	}
	// With extra slots available, helper goroutines actually run: every
	// width from one worker to one per node, and one above the node count
	// (clamped), owns the shards differently and must land on the same clock,
	// event count, memory image and NIC stats.
	restore := slots.SetCapacity(32)
	defer restore()
	got := runMode(t, 4, 3, horizon, WithShards(4))
	if got != serial {
		t.Errorf("windowed (4 workers, 32 slots) diverged from serial:\n serial:   %s\n windowed: %s", got, serial)
	}
	const wideHorizon = 100_000
	wide := runMode(t, 16, 2, wideHorizon)
	for _, workers := range []int{1, 2, 3, 4, 16, 20} {
		e, words := shardedWorkload(16, 2, WithShards(workers))
		e.Run(wideHorizon)
		if got := fingerprint(e, words); got != wide {
			t.Errorf("16 nodes, %d workers diverged from serial:\n serial:   %s\n windowed: %s", workers, wide, got)
		}
		want := workers
		if want > 16 {
			want = 16
		}
		if ws := e.WindowStats(); ws.Width != want {
			t.Errorf("16 nodes, WithShards(%d) ran on %d workers, want %d", workers, ws.Width, want)
		}
	}
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestWindowedFixedOwnership: for the whole of a windowed Run every event of
// shard n is dispatched on one goroutine, shards share a goroutine exactly
// when they have the same node % width, and residue 0 is the Run caller.
func TestWindowedFixedOwnership(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, width := range []int{2, 3, 4} {
		const nodes = 8
		e, _ := shardedWorkload(nodes, 2, WithShards(width))
		var mu sync.Mutex
		ran := make([]map[string]int, nodes) // per shard: goroutine -> events
		for i := range ran {
			ran[i] = map[string]int{}
		}
		e.onWindowEvent = func(s *shard, _ event) {
			id := goroutineID()
			mu.Lock()
			ran[s.node][id]++
			mu.Unlock()
		}
		e.Run(60_000)
		if ws := e.WindowStats(); ws.Width != width {
			t.Fatalf("width %d: ran on %d workers", width, ws.Width)
		}
		owner := map[int]string{} // residue -> goroutine
		for n, gs := range ran {
			if len(gs) != 1 {
				t.Errorf("width %d: shard %d ran on %d goroutines: %v", width, n, len(gs), gs)
				continue
			}
			for id := range gs {
				if prev, ok := owner[n%width]; ok && prev != id {
					t.Errorf("width %d: shard %d ran on goroutine %s, shard %d of the same residue on %s", width, n, id, n%width, prev)
				}
				owner[n%width] = id
			}
		}
		seen := map[string]int{}
		for r, id := range owner {
			if prev, ok := seen[id]; ok {
				t.Errorf("width %d: residues %d and %d share goroutine %s", width, prev, r, id)
			}
			seen[id] = r
		}
		if owner[0] != goroutineID() {
			t.Errorf("width %d: residue 0 ran on goroutine %s, the Run caller is %s", width, owner[0], goroutineID())
		}
	}
}

// TestWindowedParkPath: a coordinator that is slower at the barrier than the
// helpers' spin budget makes them park on their wake channels; the run still
// completes, bit-identical, and the telemetry shows the parks and the
// wake-ups that ended them. Without the delay, on two workers that each have
// a core, a busy run parks in a small fraction of its windows.
func TestWindowedParkPath(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const horizon = 200_000
	serial := runMode(t, 4, 3, horizon)
	for _, width := range []int{2, 4} {
		e, words := shardedWorkload(4, 3, WithShards(width))
		barriers := 0
		e.onBarrier = func() {
			if barriers++; barriers%16 == 0 {
				time.Sleep(2 * spinBudget)
			}
		}
		e.Run(horizon)
		if got := fingerprint(e, words); got != serial {
			t.Errorf("width %d with a slow coordinator diverged from serial:\n serial:   %s\n windowed: %s", width, serial, got)
		}
		ws := e.WindowStats()
		if ws.Width != width || ws.Parks == 0 || ws.Wakes == 0 || ws.Wakes > ws.Parks {
			t.Errorf("width %d: %d workers, %d helper parks, %d wake-ups over %d windows — the park path did not run",
				width, ws.Width, ws.Parks, ws.Wakes, ws.Windows)
		}
	}

	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("one core: two workers never spin, every wait parks")
	}
	// On an idle host a pool whose budget holds parks in well under 1 % of its
	// windows (the log line). The bound only has to tell that from a pool
	// that parks in most of them, and has to do so beside other test binaries
	// competing for the same two cores (a third of the windows park under
	// `go test -race` of four packages at once): the best of three runs.
	var ws WindowStats
	for try := 0; try < 3; try++ {
		e, _ := shardedWorkload(4, 3, WithShards(2))
		e.Run(3_000_000)
		ws = e.WindowStats()
		t.Logf("two workers, no delay: %d windows, %d helper parks, %d coordinator parks", ws.Windows, ws.Parks, ws.CoordParks)
		if ws.Windows < 1000 {
			t.Fatalf("%d windows: the run is too short to tell", ws.Windows)
		}
		if ws.Parks*2 < ws.Windows && ws.CoordParks*2 < ws.Windows {
			return
		}
	}
	t.Errorf("%d helper parks and %d coordinator parks in %d windows, three times over: the spin budget is not holding", ws.Parks, ws.CoordParks, ws.Windows)
}

// denseWorkload is local work with a little cross-node traffic: on each of
// `nodes` nodes, `tpn` threads do 20 ns of Work at a time and every 64th
// step read a word of the next node, so a safe window carries ~40 events per
// thread — windows large enough for the auto width to go wide.
func denseWorkload(nodes, tpn int, opts ...Option) (*Engine, []ptr.Ptr) {
	e := New(nodes, 4096, model.CX3(), 7, opts...)
	words := make([]ptr.Ptr, nodes)
	for n := range words {
		words[n] = e.Space().AllocLine(n)
	}
	for n := 0; n < nodes; n++ {
		for k := 0; k < tpn; k++ {
			next := words[(n+1)%nodes]
			e.Spawn(n, func(ctx api.Ctx) {
				for i := 0; !ctx.Stopped(); i++ {
					if i%64 == 0 {
						ctx.RWrite(next.Add(uint64(1+ctx.ThreadID()%7)), ctx.RRead(next)+uint64(i))
					}
					ctx.Work(20 * time.Nanosecond)
				}
			})
		}
	}
	return e, words
}

// TestAutoWidthStaysNarrowOnSmallWindows: at auto width (WithShards(0)) a
// Run whose windows are too small to pay for a barrier never spawns a
// helper or takes a slot, whatever the budget, and lands where the serial
// executor does.
func TestAutoWidthStaysNarrowOnSmallWindows(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const horizon = 300_000
	serial := runMode(t, 4, 3, horizon)
	e, words := shardedWorkload(4, 3, WithShards(0))
	e.Run(horizon)
	if got := fingerprint(e, words); got != serial {
		t.Errorf("auto width diverged from serial:\n serial: %s\n auto:   %s", serial, got)
	}
	ws := e.WindowStats()
	if epw := ws.Events / ws.Windows; epw >= crossoverEvents {
		t.Fatalf("%d events per window: the workload is not a small-window one", epw)
	}
	if ws.Width != 1 || ws.WideAt != 0 || ws.WideWindows != 0 || slots.Peak() != 0 {
		t.Errorf("small windows went wide: width %d after window %d, %d wide windows, %d slots at peak",
			ws.Width, ws.WideAt, ws.WideWindows, slots.Peak())
	}
}

// TestAutoWidthGoesWideOnDenseWindows: at auto width a Run whose windows pay
// goes wide at the first look, to as many workers as the budget has slots
// (capped by the CPU and node counts), and gives the slots back at the end; with no slot to give at the first look it asks again at the
// next; with a budget of one it stays one worker. Every run lands where the
// serial executor does.
func TestAutoWidthGoesWideOnDenseWindows(t *testing.T) {
	const horizon = 300_000
	e, words := denseWorkload(4, 4)
	e.Run(horizon)
	serial := fingerprint(e, words)
	cases := []struct {
		name      string
		capacity  int
		heldUntil int // barriers during which the test holds every slot
		looks     uint64
	}{
		{"budget-3", 3, 0, 1},
		{"budget-8", 8, 0, 1},
		{"budget-taken-at-first-look", 3, probeWindows + 8, 2},
		{"budget-1", 1, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			width := min(c.capacity, runtime.NumCPU(), 4)
			if width == 1 && c.looks > 0 {
				t.Skip("one CPU: the auto width never goes wide")
			}
			restore := slots.SetCapacity(c.capacity)
			defer restore()
			e, words := denseWorkload(4, 4, WithShards(0))
			held, barriers := slots.TryAcquire(c.capacity-1), 0
			if c.heldUntil == 0 {
				slots.Release(held)
				held = 0
			}
			e.onBarrier = func() {
				if barriers++; barriers == c.heldUntil {
					slots.Release(held)
				}
			}
			e.Run(horizon)
			if got := fingerprint(e, words); got != serial {
				t.Errorf("auto width diverged from serial:\n serial: %s\n auto:   %s", serial, got)
			}
			ws := e.WindowStats()
			if ws.Width != width || ws.WideAt != c.looks*probeWindows {
				t.Errorf("ran on %d workers, wide after window %d; want %d workers, wide after window %d",
					ws.Width, ws.WideAt, width, c.looks*probeWindows)
			}
			if width > 1 && (ws.WideWindows == 0 || ws.WideWindows > ws.Windows-ws.WideAt || ws.Events/ws.Windows < crossoverEvents) {
				t.Errorf("%d wide windows of %d, %d events per window", ws.WideWindows, ws.Windows, ws.Events/ws.Windows)
			}
			if n := slots.InUse(); n != 0 {
				t.Errorf("%d slots still held after the Run", n)
			}
		})
	}
}

// TestAutoWidthRetiresHelpersWithoutACore: a wide auto pool whose helper has
// no core of its own — here GOMAXPROCS 1 under a two-slot budget, so the two
// workers take turns on one P and park at every wait — burns one CPU where
// two workers should burn two; at its first check it gives the helper back,
// and it stays on one worker for longer after every retirement, still
// bit-identical to serial.
func TestAutoWidthRetiresHelpersWithoutACore(t *testing.T) {
	if runtime.NumCPU() < 2 || processCPU() < 0 {
		t.Skip("needs two CPUs and the process's CPU time")
	}
	const horizon = 2_000_000
	e, words := denseWorkload(4, 4)
	e.Run(horizon)
	serial := fingerprint(e, words)
	restore := slots.SetCapacity(2)
	defer restore()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, words = denseWorkload(4, 4, WithShards(0))
	e.Run(horizon)
	if got := fingerprint(e, words); got != serial {
		t.Errorf("a retiring pool diverged from serial:\n serial: %s\n auto:   %s", serial, got)
	}
	ws := e.WindowStats()
	t.Logf("%d windows: wide after %d, %d retirements, the last at %d, %d wide; parks %d/%d", ws.Windows, ws.WideAt, ws.Retires, ws.RetiredAt, ws.WideWindows, ws.Parks, ws.CoordParks)
	if ws.Width != 2 || ws.WideAt != probeWindows || ws.Retires == 0 || ws.RetiredAt <= ws.WideAt {
		t.Errorf("width %d, wide after window %d, %d retirements, the last at %d: want two workers from the first look, then one", ws.Width, ws.WideAt, ws.Retires, ws.RetiredAt)
	}
	// Each stint wide lasts checkNS and the next one waits twice as long:
	// most of the run is on one worker.
	if ws.WideWindows*2 > ws.Windows {
		t.Errorf("%d of %d windows wide", ws.WideWindows, ws.Windows)
	}
	if n := slots.InUse(); n != 0 {
		t.Errorf("%d slots still held after the Run", n)
	}
}

// TestWindowedParksStopAfterSlowBarriers: a coordinator that overruns the
// helpers' spin budget at every barrier for a stretch makes them park in
// every window of it; once it stops, the pool must go back to spinning
// rather than go on parking window after window, with both workers queued
// on one P (await's yield). The run stays bit-identical throughout. The
// bound is TestWindowedParkPath's — each side parks in fewer than half of
// the ~2 300 windows after the stretch, the best of three runs — because the
// race detector's slower windows, or another test binary on the same cores,
// make a healthy pool park in up to a fifth of them; a pool that keeps
// parking after the stretch parks in most.
func TestWindowedParksStopAfterSlowBarriers(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const (
		horizon = 2_000_000
		from    = 64
		stretch = 32
	)
	e, words := denseWorkload(4, 4)
	e.Run(horizon)
	serial := fingerprint(e, words)
	cores := runtime.GOMAXPROCS(0) >= 2 && runtime.NumCPU() >= 2
	var ws WindowStats
	for try := 0; try < 3; try++ {
		e, words := denseWorkload(4, 4, WithShards(2))
		barriers := 0
		e.onBarrier = func() {
			if barriers++; barriers > from && barriers <= from+stretch {
				time.Sleep(2 * spinBudget)
			}
		}
		e.Run(horizon)
		if got := fingerprint(e, words); got != serial {
			t.Fatalf("slow barriers diverged from serial:\n serial:   %s\n windowed: %s", serial, got)
		}
		ws = e.WindowStats()
		t.Logf("%d windows, %d helper parks, %d coordinator parks, %d wake-ups; spin %v ns, parked %v ns", ws.Windows, ws.Parks, ws.CoordParks, ws.Wakes, ws.SpinNS, ws.ParkNS)
		if ws.Width != 2 || ws.Parks < stretch/2 {
			t.Fatalf("%d workers, %d helper parks: the stretch did not make the helper park", ws.Width, ws.Parks)
		}
		if !cores {
			t.Skip("one core: two workers never spin, every wait parks")
		}
		after := ws.Windows - from - stretch
		if ws.Parks < stretch+after/2 && ws.CoordParks < after/2 {
			return
		}
	}
	t.Errorf("%d helper and %d coordinator parks in %d windows, %d of them after the stretch, three times over: the pool kept parking", ws.Parks, ws.CoordParks, ws.Windows, ws.Windows-from-stretch)
}

// TestWindowStatsAccounting: the telemetry is exact — every event of a
// windowed Run is in some window, every window in the histogram, every
// shard-window on its owner's count — and a Run on one worker publishes
// nothing and parks nobody.
func TestWindowStatsAccounting(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, width := range []int{2, 3} {
		e, _ := shardedWorkload(6, 2, WithShards(width))
		shardWindows := make([]uint64, 6) // windows in which the shard dispatched something
		lastWend := make([]int64, 6)
		var mu sync.Mutex
		e.onWindowEvent = func(s *shard, _ event) {
			mu.Lock()
			if s.own.wend != lastWend[s.node] {
				lastWend[s.node] = s.own.wend
				shardWindows[s.node]++
			}
			mu.Unlock()
		}
		e.Run(100_000)
		ws := e.WindowStats()
		if ws.Events != e.Events() {
			t.Errorf("width %d: windows dispatched %d events, the engine counted %d", width, ws.Events, e.Events())
		}
		var hist uint64
		for _, n := range ws.EventsLog2 {
			hist += n
		}
		if ws.Windows == 0 || hist != ws.Windows {
			t.Errorf("width %d: %d windows, %d in the histogram", width, ws.Windows, hist)
		}
		want := make([]uint64, width)
		for n, k := range shardWindows {
			want[n%width] += k
		}
		if fmt.Sprint(ws.ShardWindows) != fmt.Sprint(want) {
			t.Errorf("width %d: shard-windows per worker %v, the hook saw %v", width, ws.ShardWindows, want)
		}
	}
	restore()
	restore = slots.SetCapacity(1)
	e, _ := shardedWorkload(4, 2, WithShards(4))
	e.Run(50_000)
	if ws := e.WindowStats(); ws.Width != 1 || ws.Windows == 0 || ws.Parks+ws.Wakes+ws.CoordParks != 0 || len(ws.ShardWindows) != 1 {
		t.Errorf("no slots granted: %+v", ws)
	}
}

// TestWindowedWithAudit: the access-audit mode must pass cleanly on a
// protocol-respecting workload in every mode (it would panic on an
// out-of-protocol cross-shard touch).
func TestWindowedWithAudit(t *testing.T) {
	const horizon = 200_000
	serial := runMode(t, 3, 2, horizon, WithAccessAudit())
	windowed := runMode(t, 3, 2, horizon, WithShards(3), WithAccessAudit())
	if serial != windowed {
		t.Errorf("audit-mode windowed diverged from serial:\n serial:   %s\n windowed: %s", serial, windowed)
	}
}

// TestAuditCatchesCrossShardTouch: a local operation on another node's
// memory is an out-of-protocol cross-shard access; the audit must turn it
// into a Run-site panic naming the violation.
func TestAuditCatchesCrossShardTouch(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithAccessAudit()}},
		{"windowed", []Option{WithShards(2), WithAccessAudit()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := New(2, 1024, model.CX3(), 1, mode.opts...)
			remote := e.Space().AllocLine(1)
			e.Spawn(0, func(ctx api.Ctx) {
				_ = ctx.Read(remote) // illegal: local read of node 1's word
			})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("audit did not fire on a cross-shard local read")
				}
				if !strings.Contains(fmt.Sprint(r), "access audit") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			e.Run(100_000)
		})
	}
}

// TestWithShardsRejectsNegativeWorkers: a negative worker count is a
// configuration error (0 is auto width: TestAutoWidth*).
func TestWithShardsRejectsNegativeWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithShards(-1) accepted")
		}
	}()
	WithShards(-1)
}

// TestWindowSafetyProperty: the conservative invariant — the windowed
// executor never dispatches an event outside the safe window its barrier
// computed, and a shard's clock never regresses across windows. Checked
// against the engine's own window bookkeeping via the test hook, over a
// randomized-ish workload dense in cross-shard traffic.
func TestWindowSafetyProperty(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	e, _ := shardedWorkload(4, 3, WithShards(4))
	var mu sync.Mutex
	violations := []string{}
	lastAt := make([]int64, 4)
	dispatched := 0
	e.onWindowEvent = func(s *shard, ev event) {
		mu.Lock()
		defer mu.Unlock()
		dispatched++
		if ev.at >= s.own.wend {
			violations = append(violations,
				fmt.Sprintf("shard %d dispatched t=%d beyond window end %d", s.node, ev.at, s.own.wend))
		}
		if ev.at < lastAt[s.node] {
			violations = append(violations,
				fmt.Sprintf("shard %d time regressed: %d after %d", s.node, ev.at, lastAt[s.node]))
		}
		lastAt[s.node] = ev.at
		if d := ev.dest(); d != s.node {
			violations = append(violations,
				fmt.Sprintf("shard %d dispatched an event owned by shard %d", s.node, d))
		}
	}
	e.Run(200_000)
	if len(violations) > 0 {
		t.Fatalf("%d window-safety violations, first: %s", len(violations), violations[0])
	}
	if dispatched == 0 {
		t.Fatal("window hook saw no events — windowed path did not run")
	}
}

// TestWindowedStopAndHorizon: Run to a horizon under the windowed
// executor stops every thread and commits a final clock at or beyond the
// horizon; a second Run with a longer horizon resumes cleanly.
func TestWindowedStopAndHorizon(t *testing.T) {
	e, words := shardedWorkload(3, 2, WithShards(3))
	e.Run(150_000)
	if e.Now() < 150_000 {
		t.Errorf("clock %d short of horizon", e.Now())
	}
	if !e.Stopped() {
		t.Error("engine not stopped after Run")
	}
	_ = words
}

// TestWindowedDeadlockDetected (the name is pinned; what it checks is the
// opposite outcome): a poller nobody ever satisfies must wind down at the
// horizon under the windowed executor, not trip Run's closing check.
func TestWindowedDeadlockDetected(t *testing.T) {
	e := New(2, 1024, model.CX3(), 1, WithShards(2))
	w := e.Space().AllocLine(0)
	e.Spawn(1, func(ctx api.Ctx) {
		for ctx.RRead(w) == 0 && !ctx.Stopped() {
			ctx.Pause(1)
		}
	})
	// No writer: the poller winds down at the horizon; this run must NOT
	// deadlock — here we pin that windowed wind-down terminates. (No test
	// exercises Run's "blocked forever" panic, under either executor, and no
	// api.Ctx call can reach it: every suspend has its wake-up or completion
	// already scheduled. It is an internal invariant of the engine.)
	e.Run(50_000)
	if !e.Stopped() {
		t.Error("windowed run did not stop")
	}
}

// TestWindowedEventsCounterMatchesSerial pins the events-counter contract
// directly (it is also part of every fingerprint above): one event per
// block in every mode.
func TestWindowedEventsCounterMatchesSerial(t *testing.T) {
	const horizon = 100_000
	builds := func(opts ...Option) uint64 {
		e, _ := shardedWorkload(2, 2, opts...)
		e.Run(horizon)
		return e.Events()
	}
	serial := builds()
	if w := builds(WithShards(2)); w != serial {
		t.Errorf("windowed events %d != serial %d", w, serial)
	}
	ref, _ := shardedWorkload(2, 2)
	runReference(t, ref, horizon)
	if ref.Events() != serial {
		t.Errorf("reference replay events %d != serial %d", ref.Events(), serial)
	}
}
