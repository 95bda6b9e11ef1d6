package scenario

import (
	"testing"
	"time"

	"alock/internal/harness"
	"alock/internal/model"
	"alock/internal/sim"
)

// engineRun runs cfg through harness.Run and returns the engine it ran on —
// on the serial executor if serial is set — for what harness.Result does not
// carry: resumes and window telemetry.
func engineRun(t *testing.T, cfg harness.Config, serial bool) (harness.Result, *sim.Engine) {
	t.Helper()
	var e *sim.Engine
	build := newEngine
	defer func() { newEngine = build }()
	newEngine = func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine {
		if serial {
			e = serialEngine(nodes, wordsPerNode, p, seed)
		} else {
			e = build(nodes, wordsPerNode, p, seed, opts...)
		}
		return e
	}
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// TestEngineCensus counts where the default run's events execute and what
// they cost in coroutine switches, per config and in total, over a reduced
// paper/fig5-high-contention grid (its 16x4 cells) and a reduced
// fail/timeout-recovery one (its 30 us cells, 16x8), at full-scale targets and
// windows, seed 1, against the same configs on the serial executor. Run with
// -v to read it; it logs the events each run counted and how many of them were
// dispatched (the rest are SpinWhile and SpinUntil blocks parked threads
// skipped). It pins that the grids dispatch at least 90 % of their events
// inside windows — the warm-up never moves a TargetOps countdown, and the stop
// guard hands over only the last window's worth of operations (alock's cells
// reach their targets here) — and resume threads less often per event than
// the serial executor does, which queues every local op of a thread with
// another node's event ahead of it instead of advancing it in place.
// It then runs the benchmark's timed-rw-txn pass (rw/storm-tails,
// fail/timeout-recovery, deadlock/policy-compare, deadlock/dining) at full
// scale, seed 1, and logs its events per op, counted and dispatched — exact
// on both executors (Engine.Credited) — where no wait-die config may run a
// window at all. (The full grids, seed 1: fig5 36.05 M events, 0.948
// windowed, 7.83 M resumes against 11.08 M serial; timeout-recovery 19.36 M,
// 0.955, 3.64 M against 5.69 M; timed-rw-txn 72.77 counted, 41.05 dispatched
// per op.)
func TestEngineCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the census is of full-scale targets")
	}
	reduced := harness.Scale{NodesOverride: []int{16}, ThreadsOverride: []int{4}} // timeout-recovery fixes 8
	for _, name := range []string{"paper/fig5-high-contention", "fail/timeout-recovery"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		var events, dispatched, windowed, resumes, serialResumes uint64
		handoffs := 0
		for _, cfg := range sc.Configs(reduced) {
			if cfg.AcquireTimeout != 0 && cfg.AcquireTimeout != 30*time.Microsecond {
				continue
			}
			want, se := engineRun(t, cfg, true)
			res, e := engineRun(t, cfg, false)
			if res.Events != want.Events || res.Ops != want.Ops {
				t.Fatalf("%s %s: %d events / %d ops, the serial executor %d / %d", name, cfg.Algorithm, res.Events, res.Ops, want.Events, want.Ops)
			}
			ws := e.WindowStats()
			run := res.Events - e.Credited()
			t.Logf("%-9s %2dx%-2d timeout %-5v: %8d events, %8d dispatched, %.3f windowed, %7d resumes (serial %7d), handoff at %7d ns",
				cfg.Algorithm, cfg.Nodes, cfg.ThreadsPerNode, cfg.AcquireTimeout, res.Events, run,
				float64(ws.Events)/float64(run), e.Resumes(), se.Resumes(), ws.HandoffAt)
			events += res.Events
			dispatched += run
			windowed += ws.Events
			resumes += e.Resumes()
			serialResumes += se.Resumes()
			if ws.SerialEvents > 0 {
				handoffs++
			}
		}
		share := float64(windowed) / float64(dispatched)
		t.Logf("%s: %d events, %d dispatched, %.3f windowed; %d resumes (%.3f per event), serial executor %d (%.3f)",
			name, events, dispatched, share, resumes, float64(resumes)/float64(events), serialResumes, float64(serialResumes)/float64(events))
		if share < 0.9 {
			t.Errorf("%s: %.3f of the dispatched events ran inside windows, want at least 0.9", name, share)
		}
		if resumes >= serialResumes {
			t.Errorf("%s: %d resumes, the serial executor %d", name, resumes, serialResumes)
		}
		if handoffs == 0 {
			t.Errorf("%s: no config reached its target: the census never crossed a handoff", name)
		}
	}

	var events, dispatched, ops uint64
	for _, name := range []string{"rw/storm-tails", "fail/timeout-recovery", "deadlock/policy-compare", "deadlock/dining"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		var ev, run, op uint64
		for _, cfg := range sc.Configs(harness.Scale{}) {
			res, e := engineRun(t, cfg, false)
			if !cfg.RunsWindowed() && e.WindowStats().Windows != 0 {
				t.Errorf("%s %s %s: a wait-die run executed %d windows", name, cfg.Algorithm, cfg.TxnPolicy, e.WindowStats().Windows)
			}
			ev, run, op = ev+res.Events, run+res.Events-e.Credited(), op+uint64(res.Ops)
		}
		t.Logf("%-23s: %8d events, %8d dispatched, %6d ops: %.2f counted, %.2f dispatched per op",
			name, ev, run, op, float64(ev)/float64(op), float64(run)/float64(op))
		events, dispatched, ops = events+ev, dispatched+run, ops+op
	}
	t.Logf("timed-rw-txn: %d events, %d dispatched, %d ops: %.2f counted, %.2f dispatched per op",
		events, dispatched, ops, float64(events)/float64(ops), float64(dispatched)/float64(ops))

	// The benchmark's svc-open pass, each config with the width auto width took
	// it to (WindowStats Width, and WideAt: the windows it ran before it went
	// wide).
	events, dispatched, ops = 0, 0, 0
	for _, name := range []string{"svc/open-loop", "svc/shed-overload"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, cfg := range sc.Configs(harness.Scale{}) {
			res, e := engineRun(t, cfg, false)
			ws, run := e.WindowStats(), res.Events-e.Credited()
			t.Logf("%-17s %-8s %9.0f ops/s %-9s: %8d events, %8d dispatched (%.1f per op), %5.0f per window, width %d from window %d of %d",
				name, cfg.Algorithm, cfg.ArrivalRate, cfg.SvcAdmission, res.Events, run, float64(run)/float64(res.Svc.TotalServed),
				float64(ws.Events)/float64(ws.Windows), ws.Width, ws.WideAt, ws.Windows)
			events, dispatched, ops = events+res.Events, dispatched+run, ops+uint64(res.Svc.TotalServed)
		}
	}
	t.Logf("svc-open: %d events, %d dispatched, %d ops served: %.2f counted, %.2f dispatched per op",
		events, dispatched, ops, float64(events)/float64(ops), float64(dispatched)/float64(ops))
}
