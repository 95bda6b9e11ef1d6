package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"alock/internal/sim"
	"alock/internal/slots"
)

// TestWindowTelemetryPaperCorner runs Figure 5's corner (16 nodes x 12
// threads, 20 locks, 90 % locality — the benchmark's alock-n16-t12 child) on
// two windowed workers and logs what the executor did: windows, events and
// active shards per window, each worker's share, parks and wake-ups. Run with
// -v to read the attribution; the assertions pin what must hold on any host.
func TestWindowTelemetryPaperCorner(t *testing.T) {
	restore := slots.SetCapacity(2) // one helper, whatever GOMAXPROCS is
	defer restore()
	measure := int64(2_000_000)
	if testing.Short() {
		measure = 300_000
	}
	p, err := Config{
		Algorithm: "alock", Nodes: 16, ThreadsPerNode: 12, Locks: 20, LocalityPct: 90,
		WarmupNS: 400_000, MeasureNS: measure, Seed: 1, EngineShards: 2,
	}.withDefaults().check()
	if err != nil {
		t.Fatal(err)
	}
	s := p.prepare()
	res := s.runClosedLoop()
	ws := s.e.WindowStats()

	var shardWindows, hist uint64
	for _, n := range ws.ShardWindows {
		shardWindows += n
	}
	for _, n := range ws.EventsLog2 {
		hist += n
	}
	t.Logf("width %d: %d windows, %d events (%.0f per window), %d shard-windows (%.1f active shards per window), %d windows with one active shard",
		ws.Width, ws.Windows, ws.Events, float64(ws.Events)/float64(ws.Windows),
		shardWindows, float64(shardWindows)/float64(ws.Windows), ws.SingleShard)
	t.Logf("shard-windows per worker %v; helper parks %d, wake-ups %d, coordinator parks %d", ws.ShardWindows, ws.Parks, ws.Wakes, ws.CoordParks)
	t.Logf("events per window, log2 buckets: %v", ws.EventsLog2)
	logBarrierSplit(t, ws)

	if ws.Width != 2 || len(ws.ShardWindows) != 2 {
		t.Fatalf("ran on %d workers (%d slots), want 2", ws.Width, len(ws.ShardWindows))
	}
	if ws.Windows == 0 || hist != ws.Windows {
		t.Errorf("%d windows, %d in the histogram", ws.Windows, hist)
	}
	// Spawn only schedules, so every event of the run was dispatched inside
	// a window or is a SpinWhile block a parked thread skipped.
	if ws.Events+ws.Credited != res.Events {
		t.Errorf("windows dispatched %d events and %d were credited, the run counted %d", ws.Events, ws.Credited, res.Events)
	}
	// Fixed ownership on a symmetric workload: each worker owns 8 of the 16
	// nodes and runs about half of the shard-windows.
	for w, n := range ws.ShardWindows {
		if n*10 < shardWindows*4 {
			t.Errorf("worker %d ran %d of %d shard-windows", w, n, shardWindows)
		}
	}
	if ws.Wakes > ws.Parks {
		t.Errorf("%d wake-ups for %d parks", ws.Wakes, ws.Parks)
	}
}

// logBarrierSplit logs where a wide Run's host time went: the coordinator's
// barrier phase and each worker's wait, spinning and parked, as shares of
// the windowed part of the Run, and the deepest outbox a barrier delivered.
func logBarrierSplit(t *testing.T, ws sim.WindowStats) {
	t.Helper()
	share := func(ns []int64) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = fmt.Sprintf("%.1f%%", 100*float64(n)/float64(ws.WallNS))
		}
		return out
	}
	t.Logf("%d of %d windows wide (wide after window %d); %.1f ms windowed: barrier phase %.1f%%, spinning %v, parked %v per worker; deepest outbox %d",
		ws.WideWindows, ws.Windows, ws.WideAt, float64(ws.WallNS)/1e6, 100*float64(ws.SerialNS)/float64(ws.WallNS),
		share(ws.SpinNS), share(ws.ParkNS), ws.MaxOutbox)
}

// TestAutoWidthPaperCornerGoesWide: at the default EngineShards 0 the paper
// corner's windows (~1 000 events each) pay for a second worker, so with a
// budget of two slots the Run goes wide at the first look, one probe of
// windows in, keeps both workers to the end, and is bit-identical to the
// serial executor.
func TestAutoWidthPaperCornerGoesWide(t *testing.T) {
	restore := slots.SetCapacity(2)
	defer restore()
	measure := int64(1_000_000)
	if testing.Short() {
		measure = 300_000
	}
	cfg := Config{
		Algorithm: "alock", Nodes: 16, ThreadsPerNode: 12, Locks: 20, LocalityPct: 90,
		WarmupNS: 400_000, MeasureNS: measure, Seed: 1,
	}
	var want Result
	onSerialExecutor(func() { want = MustRun(cfg) })
	p, err := cfg.withDefaults().check()
	if err != nil {
		t.Fatal(err)
	}
	s := p.prepare()
	got := s.runClosedLoop()
	ws := s.e.WindowStats()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("auto width diverged from the serial executor (ops %d / %d, events %d / %d)", got.Ops, want.Ops, got.Events, want.Events)
	}
	if runtime.NumCPU() < 2 {
		if ws.Width != 1 || ws.WideAt != 0 {
			t.Errorf("one CPU: ran on %d workers, wide after window %d", ws.Width, ws.WideAt)
		}
		return
	}
	if ws.Width != 2 || ws.WideAt == 0 || ws.WideAt > 64 || ws.WideWindows == 0 {
		t.Errorf("ran on %d workers, wide after window %d with %d wide windows: want two workers from the first look", ws.Width, ws.WideAt, ws.WideWindows)
	}
	if n := slots.InUse(); n != 0 {
		t.Errorf("%d slots still held after the Run", n)
	}
	logBarrierSplit(t, ws)
}
