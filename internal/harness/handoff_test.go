package harness

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"alock/internal/slots"
)

// TestTargetOpsHandoffMatchesSerial: a TargetOps run executes on the windowed
// executor until its stop guard sees the countdown within one window's reach
// of the target, and hands the rest to the serial loop — and the result is
// the serial executor's, bit for bit, at every engine width. Each config is a
// 2x2 cluster with a 5 000-op target, far above the guard's allowance
// (4 threads x (780/10 + 1) = 316 ops), so the handoff lands mid-run, after
// the warm-up (which never moves the countdown) and well before the stop.
func TestTargetOpsHandoffMatchesSerial(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	base := Config{
		Nodes: 2, ThreadsPerNode: 2, Locks: 4, LocalityPct: 90,
		WarmupNS: 50_000, MeasureNS: 40_000_000, TargetOps: 5_000, Seed: 1,
	}
	var cfgs []Config
	for _, algo := range []string{"alock", "mcs", "spinlock", "rw-queue"} {
		c := base
		c.Algorithm = algo
		if algo == "rw-queue" {
			c.ReadPct = 60
		}
		cfgs = append(cfgs, c)
	}
	txn := base
	txn.Algorithm, txn.TxnLocks, txn.TxnPolicy = "mcs", 2, "timeout-backoff"
	txn.AcquireTimeout, txn.TxnBackoff = 15*time.Microsecond, 5*time.Microsecond
	cfgs = append(cfgs, txn)

	for _, cfg := range cfgs {
		name := cfg.Algorithm
		if cfg.TxnLocks > 0 {
			name += "-txn-" + cfg.TxnPolicy
		}
		var want Result
		onSerialExecutor(func() { want = MustRun(cfg) })
		if want.Ops < cfg.TargetOps || want.Ops > cfg.TargetOps+4 {
			t.Fatalf("%s: the serial run recorded %d ops, want the %d-op target to stop it", name, want.Ops, cfg.TargetOps)
		}
		for _, shards := range []int{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/engine-shards-%d", name, shards), func(t *testing.T) {
				c := cfg
				c.EngineShards = shards
				p, err := c.withDefaults().check()
				if err != nil {
					t.Fatal(err)
				}
				s := p.prepare()
				got := s.runClosedLoop()
				ws := s.e.WindowStats()
				got.Config.EngineShards = 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("result diverged from the serial executor's (ops %d / %d, events %d / %d)", got.Ops, want.Ops, got.Events, want.Events)
				}
				// 0 is auto: one worker unless the windows paid for the
				// slot budget's capacity (8), capped by the CPU and node counts
				// (2 nodes).
				width := min(shards, c.Nodes)
				if shards == 0 {
					width = 1
					if ws.WideAt > 0 {
						width = c.Nodes
					}
				}
				if ws.Width != width {
					t.Errorf("ran on %d workers (wide after window %d), want %d", ws.Width, ws.WideAt, width)
				}
				if ws.Events == 0 || ws.SerialEvents == 0 || ws.Events+ws.SerialEvents+ws.Credited != got.Events {
					t.Errorf("%d events in windows, %d after the handoff, %d credited blocks, %d in all: the handoff did not land mid-run", ws.Events, ws.SerialEvents, ws.Credited, got.Events)
				}
				if ws.HandoffAt <= c.WarmupNS {
					t.Errorf("handed off at %d ns, inside the %d ns warm-up", ws.HandoffAt, c.WarmupNS)
				}
				t.Logf("%d of %d events in %d windows (%.3f), handoff at %d ns", ws.Events, got.Events, ws.Windows, float64(ws.Events)/float64(got.Events), ws.HandoffAt)
			})
		}
	}
}
