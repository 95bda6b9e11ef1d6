// Package bench is the repo's engine-layer micro suite. It defines a fixed
// set of raw-engine cases, each isolating one layer of internal/sim (thread
// switch, Go-state wait, parked spin, posted local ops, torn loopback verb,
// verb protocol, window barrier), at two sizes, and runs each case N times on
// the engine's executors: the serial one (typed 4-ary event heap, serial
// dispatch loop) and the conservative windowed one on one worker and on
// several. It reports events/sec, ns/event, allocs/event and bytes/event in a
// stable JSON schema (BENCH_*.json). cmd/bench is the CLI. Scenarios are timed
// end to end by benchmark/, not here.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// Schema identifies the report layout; bump on incompatible change.
// v2 files carry three engine variants; v3 measures the two executors and
// names the rows after them (serial, windowed); v4 measures the windowed
// executor at one worker and at several too, labels each row by the executor
// and width it reached (serial, windowed-1, windowed-N), and compares the
// windowed widths with each other.
const Schema = "alock-bench/v4"

// EngineSerial labels rows run on the serial executor (typed 4-ary heap,
// serial dispatch loop); a row on the windowed executor is labelled
// windowed-N, N its worker count (label).
const EngineSerial = "serial"

// defaultWorkers is the wide windowed row's worker count when the caller
// passes 0; the slot budget caps actual concurrency at GOMAXPROCS. Results
// are bit-identical at any count; only throughput changes.
const defaultWorkers = 2

// Case is one benchmark workload: build makes a raw simulator, which the
// case runs to horizon.
type Case struct {
	// Name is stable across trajectory files ("engine/<layer>", with
	// "@paper" on the larger size).
	Name string

	build   func(opts ...sim.Option) *sim.Engine
	horizon int64
}

// Measurement is one case × engine variant, aggregated over reps: rates
// from the fastest rep (least scheduler noise), allocation count and bytes
// from the rep with the fewest mallocs (steady state).
type Measurement struct {
	Name           string  `json:"name"`
	Engine         string  `json:"engine"` // the executor the row ran on: label
	Reps           int     `json:"reps"`
	Events         uint64  `json:"events"`
	WallNS         int64   `json:"wall_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NSPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// BytesPerEvent is the heap allocated per event (runtime.MemStats
	// TotalAlloc) while the engine runs; building it is not counted.
	BytesPerEvent float64 `json:"bytes_per_event"`
	// Window telemetry of the fastest rep (sim.WindowStats), on the windowed
	// rows: safe windows executed, mean events per window, and how often a
	// helper's spin budget ran out and it parked.
	Windows         uint64  `json:"windows,omitempty"`
	EventsPerWindow float64 `json:"events_per_window,omitempty"`
	Parks           uint64  `json:"parks,omitempty"`
	// The barrier's time split of the same rep, on rows that ran on more than
	// one worker: windows published to helpers, the coordinator's barrier
	// phase, each worker's wait spinning and parked (host ns), and the
	// deepest outbox a barrier delivered.
	WideWindows uint64  `json:"wide_windows,omitempty"`
	SerialNS    int64   `json:"serial_ns,omitempty"`
	SpinNS      []int64 `json:"spin_ns,omitempty"`
	ParkNS      []int64 `json:"park_ns,omitempty"`
	MaxOutbox   int     `json:"max_outbox,omitempty"`
}

// window copies the window telemetry of a rep onto the row.
func (m *Measurement) window(win sim.WindowStats) {
	m.Windows, m.Parks, m.EventsPerWindow = win.Windows, win.Parks, 0
	if win.Windows > 0 {
		m.EventsPerWindow = float64(win.Events) / float64(win.Windows)
	}
	m.WideWindows, m.SerialNS, m.SpinNS, m.ParkNS, m.MaxOutbox = 0, 0, nil, nil, 0
	if win.Width > 1 {
		m.WideWindows, m.SerialNS, m.SpinNS, m.ParkNS, m.MaxOutbox = win.WideWindows, win.SerialNS, win.SpinNS, win.ParkNS, win.MaxOutbox
	}
}

// Comparison sets one case's executors side by side. The wide rate is absent
// when the run has no wide row (-engine-shards 1).
type Comparison struct {
	Name                  string  `json:"name"`
	SerialEventsPerSec    float64 `json:"serial_events_per_sec,omitempty"`
	OneWorkerEventsPerSec float64 `json:"one_worker_events_per_sec,omitempty"`
	WindowedEventsPerSec  float64 `json:"windowed_events_per_sec,omitempty"`
	// Width is the wide windowed row's worker count.
	Width int `json:"width,omitempty"`
	// OneWorkerSpeedup is windowed-1 over serial: what the lookahead buys on
	// one core. WindowedSpeedup is windowed-Width over windowed-1: what the
	// further workers buy. Each is absent when either side is.
	OneWorkerSpeedup float64 `json:"one_worker_speedup,omitempty"`
	WindowedSpeedup  float64 `json:"windowed_speedup,omitempty"`
}

// Host records where a trajectory file was produced.
type Host struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the checked-in trajectory file (BENCH_NNNN.json).
type Report struct {
	Schema      string        `json:"schema"`
	ID          string        `json:"id"`
	Created     string        `json:"created"`
	Suite       string        `json:"suite"`
	Reps        int           `json:"reps"`
	Host        Host          `json:"host"`
	Cases       []Measurement `json:"cases"`
	Comparisons []Comparison  `json:"comparisons"`
}

// hostInfo captures the current process's runtime identity.
func hostInfo() Host {
	return Host{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// contendedEngine builds the event-dense microbenchmark workload: threads
// on two nodes hammer one word with remote CAS retry loops, so the run is
// almost pure event-queue and thread-switch traffic.
func contendedEngine(threads int, opts ...sim.Option) *sim.Engine {
	e := sim.New(2, 1024, model.CX3(), 99, opts...)
	w := e.Space().AllocLine(0)
	for i := 0; i < threads; i++ {
		node := i % 2
		e.Spawn(node, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				for {
					old := ctx.RRead(w)
					if ctx.RCAS(w, old, old+1) == old {
						break
					}
				}
				ctx.Work(50 * time.Nanosecond)
			}
		})
	}
	return e
}

// barrierEngine is the barrier round trip: on each of `nodes` nodes one
// thread does one lookahead of Work at a time, so every safe window holds
// exactly one event per node and a window costs its barrier and little else.
// Its windowed-2 row against windowed-1, per window, is what a second worker
// adds to each window before it saves anything — the cost the auto width's
// crossover (internal/sim crossoverEvents) has to earn back.
func barrierEngine(nodes int, opts ...sim.Option) *sim.Engine {
	p := model.CX3()
	e := sim.New(nodes, 1024, p, 5, opts...)
	for n := 0; n < nodes; n++ {
		e.Spawn(n, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.Work(time.Duration(p.RemoteWireNS))
			}
		})
	}
	return e
}

// workLoopEngine is the pure scheduler-churn workload: compute-only
// threads whose every step is one schedule/pop/resume/suspend cycle — the
// cleanest measurement of the event queue and the thread switch.
func workLoopEngine(threads int, opts ...sim.Option) *sim.Engine {
	e := sim.New(1, 1024, model.Uniform(10), 7, opts...)
	for i := 0; i < threads; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.Work(10 * time.Nanosecond)
			}
		})
	}
	return e
}

// idleLoopEngine is the Go-state wait case: on every node, `idlers` threads
// wait in api.Ctx.WorkLoop, looking every 500 ns at a counter of their node
// that one more thread bumps every 20 us — the lock service's idle worker with
// no service around it. Nearly every event is a look that does not end the
// wait, so ns/event here prices the engine's running such a look without a
// thread switch, against engine/work-loop's full switch per event.
func idleLoopEngine(nodes, idlers int, opts ...sim.Option) *sim.Engine {
	e := sim.New(nodes, 1024, model.CX3(), 17, opts...)
	for n := 0; n < nodes; n++ {
		flips := new(uint64)
		for i := 0; i < idlers; i++ {
			e.Spawn(n, func(ctx api.Ctx) {
				seen := uint64(0)
				wait := func(_ int64, stopped bool) (time.Duration, bool) {
					return 500 * time.Nanosecond, !stopped && *flips == seen
				}
				for !ctx.Stopped() {
					ctx.WorkLoop(wait)
					seen = *flips
				}
			})
		}
		e.Spawn(n, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.Work(20 * time.Microsecond)
				*flips++
			}
		})
	}
	return e
}

// spinPollEngine is the local-spin layer case: on every node, `waiters`
// threads each wait on a word of their own with SpinWhile while one releaser
// bumps all of them every 20 us — ALock's passed-lock wait (Algorithm 3)
// with nothing else around it. Nearly every event is a poll that does not
// end its wait, so ns/event here prices the engine's poll stepping the way
// engine/work-loop prices a full thread switch.
func spinPollEngine(nodes, waiters int, opts ...sim.Option) *sim.Engine {
	e := sim.New(nodes, 1024, model.CX3(), 11, opts...)
	for n := 0; n < nodes; n++ {
		words := make([]ptr.Ptr, waiters)
		for i := range words {
			w := e.Space().AllocLine(n)
			words[i] = w
			e.Spawn(n, func(ctx api.Ctx) {
				for v := uint64(0); !ctx.Stopped(); {
					v = ctx.SpinWhile(w, v, 0)
				}
			})
		}
		e.Spawn(n, func(ctx api.Ctx) {
			// One more round after the horizon: every waiter sees a fresh
			// value, then Stopped, and exits.
			for v, last := uint64(1), false; !last; v++ {
				last = ctx.Stopped()
				ctx.Work(20 * time.Microsecond)
				for _, w := range words {
					ctx.Write(w, v)
				}
			}
		})
	}
	return e
}

// descWaiter is one engine/desc-wait thread's wait: over at a value it has not
// consumed whose low bits say granted (0) or promoted (2), never at claimed
// (1). The state travels in the struct and done is bound once, as
// api.Ctx.SpinUntil asks of lock handles.
type descWaiter struct {
	seen uint64
	done func(v uint64, expired bool) bool
}

func (w *descWaiter) resolved(v uint64, _ bool) bool { return v != w.seen && v%3 != 1 }

// descWaitEngine is the multi-state local-spin case: on every node, `waiters`
// threads each wait on a word of their own with SpinUntil while one granter
// steps all of them through claimed, granted, promoted every 20 us — the
// rw-queue descriptor wait with nothing else around it. A waiter is parked on
// its word between stores, its skipped polls credited, so this case no longer
// prices a dispatched poll: what it dispatches is the granter's stores, each
// store's wake of every waiter, and at each wake the executor's asking the
// caller's predicate — a third of them "not yet" (claimed), after which the
// waiter parks on the new value.
func descWaitEngine(nodes, waiters int, opts ...sim.Option) *sim.Engine {
	e := sim.New(nodes, 1024, model.CX3(), 19, opts...)
	for n := 0; n < nodes; n++ {
		words := make([]ptr.Ptr, waiters)
		for i := range words {
			w := e.Space().AllocLine(n)
			words[i] = w
			e.Spawn(n, func(ctx api.Ctx) {
				wait := &descWaiter{}
				wait.done = wait.resolved
				for !ctx.Stopped() {
					wait.seen, _ = ctx.SpinUntil(w, 0, 0, wait.done)
				}
			})
		}
		e.Spawn(n, func(ctx api.Ctx) {
			// Rounds go on past the horizon until one ends every wait (a value
			// that is not claimed): the waiters then see Stopped and exit.
			for v, last := uint64(1), false; !last; v++ {
				last = ctx.Stopped() && v%3 != 1
				ctx.Work(20 * time.Microsecond)
				for _, w := range words {
					ctx.Write(w, v)
				}
			}
		})
	}
	return e
}

// tornLoopbackEngine is the loopback-RMW case: on every node, `threads`
// threads bump a word of their own with RCAS through their own NIC, torn
// (model.CX3) — the RDMA spinlock's and MCS's acquire on a home-node lock with
// nothing around it. Each verb is three scheduled legs (execution and read
// half, write half, completion) of which only the last has anything to tell
// the thread, so ns/event here prices the executor's carrying a verb from leg
// to leg, the NIC model included.
func tornLoopbackEngine(nodes, threads int, opts ...sim.Option) *sim.Engine {
	e := sim.New(nodes, 1024, model.CX3(), 23, opts...)
	for n := 0; n < nodes; n++ {
		for i := 0; i < threads; i++ {
			w := e.Space().AllocLine(n)
			e.Spawn(n, func(ctx api.Ctx) {
				for v := uint64(0); !ctx.Stopped(); v++ {
					ctx.RCAS(w, v, v+1)
				}
			})
		}
	}
	return e
}

// localChainEngine is the local-op layer case: on every node, `threads`
// threads run `Write, Write, CAS, Fence` on a line of their own — an
// uncontended local-cohort acquire and release with nothing around it. All
// four steps are scheduled events (the node's other threads keep its queue
// ahead of each of them), but only the CAS returns a value, so ns/event here
// prices the executor's completing one posted op and starting the next.
func localChainEngine(nodes, threads int, opts ...sim.Option) *sim.Engine {
	e := sim.New(nodes, 1024, model.CX3(), 13, opts...)
	for n := 0; n < nodes; n++ {
		for i := 0; i < threads; i++ {
			w := e.Space().AllocLine(n)
			e.Spawn(n, func(ctx api.Ctx) {
				for v := uint64(0); !ctx.Stopped(); v++ {
					ctx.Write(w.Add(1), v)
					ctx.Write(w.Add(2), v)
					ctx.CAS(w, v, v+1)
					ctx.Fence()
				}
			})
		}
	}
	return e
}

// Suite expands the standing case list for the given suite name ("tiny",
// "paper" or "all").
func Suite(name string) ([]Case, error) {
	var cases []Case
	tiny := name == "tiny" || name == "all"
	paper := name == "paper" || name == "all"
	if !tiny && !paper {
		return nil, fmt.Errorf("bench: unknown suite %q (want tiny, paper or all)", name)
	}
	if tiny {
		cases = append(cases,
			Case{Name: "engine/work-loop", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return workLoopEngine(4, o...) }},
			Case{Name: "engine/idle-loop", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return idleLoopEngine(2, 4, o...) }},
			Case{Name: "engine/spin-poll", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return spinPollEngine(2, 4, o...) }},
			Case{Name: "engine/desc-wait", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return descWaitEngine(2, 4, o...) }},
			Case{Name: "engine/local-chain", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return localChainEngine(2, 4, o...) }},
			Case{Name: "engine/torn-loopback", horizon: 2_000_000,
				build: func(o ...sim.Option) *sim.Engine { return tornLoopbackEngine(2, 4, o...) }},
			Case{Name: "engine/contended-rmw", horizon: 4_000_000,
				build: func(o ...sim.Option) *sim.Engine { return contendedEngine(4, o...) }},
			Case{Name: "engine/barrier", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return barrierEngine(2, o...) }},
		)
	}
	if paper {
		cases = append(cases,
			Case{Name: "engine/work-loop@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return workLoopEngine(8, o...) }},
			Case{Name: "engine/idle-loop@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return idleLoopEngine(4, 8, o...) }},
			Case{Name: "engine/spin-poll@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return spinPollEngine(4, 8, o...) }},
			Case{Name: "engine/desc-wait@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return descWaitEngine(4, 8, o...) }},
			Case{Name: "engine/local-chain@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return localChainEngine(4, 8, o...) }},
			Case{Name: "engine/torn-loopback@paper", horizon: 20_000_000,
				build: func(o ...sim.Option) *sim.Engine { return tornLoopbackEngine(4, 8, o...) }},
			Case{Name: "engine/contended-rmw@paper", horizon: 40_000_000,
				build: func(o ...sim.Option) *sim.Engine { return contendedEngine(8, o...) }},
		)
	}
	return cases, nil
}

// widths lists the executor widths Run measures every case at, each once:
// the serial executor (0), one windowed worker and `workers` of them.
func widths(workers int) []int {
	if workers == 0 {
		workers = defaultWorkers
	}
	ws := []int{0, 1}
	if workers > 1 {
		ws = append(ws, workers)
	}
	return ws
}

// rep is what one repetition measured. win is the window telemetry, zero
// when the rep ran serial.
type rep struct {
	events  uint64
	wall    time.Duration
	mallocs uint64
	bytes   uint64 // TotalAlloc delta
	win     sim.WindowStats
}

// label names the executor a run at this width reaches: width 0 is the
// serial executor, n >= 1 the windowed one on n workers.
func label(width int) string {
	if width == 0 {
		return EngineSerial
	}
	return fmt.Sprintf("windowed-%d", width)
}

// runOnce executes one rep at the given executor width (0 = serial).
func (c Case) runOnce(shards int) rep {
	runtime.GC()
	var opts []sim.Option
	if shards > 0 {
		opts = append(opts, sim.WithShards(shards))
	}
	e := c.build(opts...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now() //lint:allow detrand benchmark harness: measuring real wall time is its job
	e.Run(c.horizon)
	wall := time.Since(t0) //lint:allow detrand benchmark harness: measuring real wall time is its job
	runtime.ReadMemStats(&after)
	return rep{events: e.Events(), wall: wall, mallocs: after.Mallocs - before.Mallocs,
		bytes: after.TotalAlloc - before.TotalAlloc, win: e.WindowStats()}
}

// Measure runs the case `reps` times at one executor width, one of
// widths: 0 is the serial executor, n >= 1 the windowed one on n workers.
// The row is labelled by that executor. Rates come from the fastest rep; the
// allocation figures, count and bytes, from the rep with the fewest mallocs
// (later reps run with warmed allocator state, so the minimum is the
// steady-state answer).
func (c Case) Measure(shards, reps int) Measurement {
	if reps < 1 {
		reps = 1
	}
	m := Measurement{Name: c.Name, Engine: label(shards), Reps: reps}
	var bestWall time.Duration
	var fewest rep
	for r := 0; r < reps; r++ {
		got := c.runOnce(shards)
		if r == 0 || got.wall < bestWall {
			bestWall = got.wall
			m.Events, m.WallNS = got.events, got.wall.Nanoseconds()
			m.window(got.win)
		}
		if r == 0 || got.mallocs < fewest.mallocs {
			fewest = got
		}
	}
	if m.WallNS > 0 && m.Events > 0 {
		m.EventsPerSec = float64(m.Events) / (float64(m.WallNS) / 1e9)
		m.NSPerEvent = float64(m.WallNS) / float64(m.Events)
	}
	if m.Events > 0 {
		m.AllocsPerEvent = float64(fewest.mallocs) / float64(m.Events)
		m.BytesPerEvent = float64(fewest.bytes) / float64(m.Events)
	}
	return m
}

// Progress receives one line per finished measurement; nil is silent.
type Progress func(m Measurement)

// Run executes the whole suite: every case at each of its widths (the
// serial executor, one windowed worker, `workers` of them, 0 =
// defaultWorkers), set side by side in comparisons. reps < 1 and workers < 0
// are errors. The report's Created field is left for the caller to stamp
// (hermetic callers, like tests, can leave it empty).
func Run(suiteName, id string, reps, workers int, progress Progress) (*Report, error) {
	if reps < 1 {
		return nil, fmt.Errorf("bench: reps %d (want at least 1)", reps)
	}
	if workers < 0 {
		return nil, fmt.Errorf("bench: negative windowed workers %d (want 0 for the default %d, or a count)", workers, defaultWorkers)
	}
	cases, err := Suite(suiteName)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: Schema, ID: id, Suite: suiteName, Reps: reps, Host: hostInfo(),
	}
	for _, c := range cases {
		cmp := Comparison{Name: c.Name}
		for _, width := range widths(workers) {
			m := c.Measure(width, reps)
			if progress != nil {
				progress(m)
			}
			rep.Cases = append(rep.Cases, m)
			switch width {
			case 0:
				cmp.SerialEventsPerSec = m.EventsPerSec
			case 1:
				cmp.OneWorkerEventsPerSec = m.EventsPerSec
			default:
				cmp.Width, cmp.WindowedEventsPerSec = width, m.EventsPerSec
			}
		}
		cmp.OneWorkerSpeedup = ratio(cmp.OneWorkerEventsPerSec, cmp.SerialEventsPerSec)
		cmp.WindowedSpeedup = ratio(cmp.WindowedEventsPerSec, cmp.OneWorkerEventsPerSec)
		rep.Comparisons = append(rep.Comparisons, cmp)
	}
	return rep, nil
}

// ratio is a/b, or 0 (absent) when either rate is.
func ratio(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / b
}
