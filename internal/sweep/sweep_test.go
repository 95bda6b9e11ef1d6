package sweep

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alock/internal/harness"
	"alock/internal/slots"
)

// testConfigs is a small multi-config sweep covering several algorithms and
// cluster shapes.
func testConfigs() []harness.Config {
	base := harness.Config{
		Locks:       30,
		LocalityPct: 90,
		WarmupNS:    50_000,
		MeasureNS:   400_000,
		TargetOps:   3_000,
		Seed:        1,
	}
	var cfgs []harness.Config
	for _, algo := range []string{"alock", "spinlock", "mcs"} {
		for _, nodes := range []int{2, 3} {
			c := base
			c.Algorithm = algo
			c.Nodes = nodes
			c.ThreadsPerNode = 3
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// stripEvents zeroes fields not part of the per-run statistics contract
// (none currently — kept for future use) and returns a comparable view.
func summarize(r harness.Result) map[string]any {
	return map[string]any{
		"ops":     r.Ops,
		"span":    r.SpanNS,
		"tput":    r.Throughput,
		"latency": r.Latency,
		"nic":     r.NIC,
		"lock":    r.Lock,
		"events":  r.Events,
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cfgs := testConfigs()
	serial, err := Runner{Parallel: 1}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Parallel: 8}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(cfgs) || len(parallel) != len(cfgs) {
		t.Fatalf("result lengths: serial=%d parallel=%d want %d",
			len(serial), len(parallel), len(cfgs))
	}
	for i := range cfgs {
		a, b := summarize(serial[i]), summarize(parallel[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("config %d: parallel run diverged from serial:\nserial:   %+v\nparallel: %+v",
				i, a, b)
		}
	}
}

func TestRerunIsIdentical(t *testing.T) {
	cfgs := testConfigs()
	r := Runner{Parallel: 4}
	first, err := r.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(summarize(first[i]), summarize(second[i])) {
			t.Errorf("config %d: same-seed re-run diverged", i)
		}
	}
}

func TestResultsInInputOrder(t *testing.T) {
	cfgs := testConfigs()
	results, err := Runner{Parallel: 8}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Config.Algorithm != cfgs[i].Algorithm || r.Config.Nodes != cfgs[i].Nodes {
			t.Fatalf("results[%d] holds config %+v, want %+v",
				i, r.Config, cfgs[i])
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfgs := testConfigs()
	var seen []int
	var lastDone int
	r := Runner{
		Parallel: 4,
		OnResult: func(p Progress) {
			seen = append(seen, p.Index)
			if p.Done <= lastDone || p.Done > p.Total {
				t.Errorf("non-monotonic Done: %d after %d (total %d)", p.Done, lastDone, p.Total)
			}
			lastDone = p.Done
			if p.Err != nil || p.Result == nil {
				t.Errorf("run %d: err=%v result=%v", p.Index, p.Err, p.Result)
			}
		},
	}
	if _, err := r.Run(cfgs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("callback fired %d times, want %d", len(seen), len(cfgs))
	}
}

func TestBadConfigSurfacesError(t *testing.T) {
	cfgs := testConfigs()
	cfgs[1].Nodes = 99 // invalid: 4-bit node IDs
	results, err := Runner{Parallel: 4}.Run(cfgs)
	if err == nil {
		t.Fatal("invalid config did not surface an error")
	}
	// The other runs must still have executed.
	for i, r := range results {
		if i == 1 {
			continue
		}
		if r.Ops == 0 {
			t.Errorf("run %d skipped despite unrelated failure", i)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	results, err := Runner{}.Run(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}

// TestSlotBudgetComposition: a parallel sweep of configs that themselves
// run multi-worker sharded engines must not multiply goroutines past the
// process slot budget. With capacity C, the extra slots outstanding at any
// instant — sweep workers beyond the caller plus engine helpers beyond each
// engine's driver — may never exceed C-1, so total running goroutines stay
// at most C.
func TestSlotBudgetComposition(t *testing.T) {
	const capacity = 3
	restore := slots.SetCapacity(capacity)
	defer restore()

	cfgs := testConfigs()
	for i := range cfgs {
		// Without TargetOps no stop guard hands the run to the serial
		// executor, so helpers hold their slots to the end.
		cfgs[i].TargetOps = 0
		cfgs[i].MeasureNS = 150_000
		cfgs[i].EngineShards = 4
	}
	if _, err := (Runner{Parallel: 4}).Run(cfgs); err != nil {
		t.Fatal(err)
	}
	if p := slots.Peak(); p > capacity-1 {
		t.Fatalf("slot budget violated: peak %d extra slots with capacity %d", p, capacity)
	}
	if u := slots.InUse(); u != 0 {
		t.Fatalf("%d slots leaked", u)
	}

	// The same sweep with all slots taken still completes (fully serial).
	taken := slots.TryAcquire(capacity - 1)
	res, err := (Runner{Parallel: 4}).Run(cfgs[:2])
	slots.Release(taken)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Ops == 0 {
		t.Fatal("slot-starved sweep produced no work")
	}
}

// TestFinishedWorkerReturnsItsSlot: a sweep worker that finds no config
// left gives its slot back at once, not when the last config finishes, so the
// runs still going in a sweep's tail can widen onto the core it freed. One
// long config and two short ones on three workers: whichever worker takes
// the long one, some helper runs out of configs while it still runs. The
// engines run on one worker each, so only the sweep holds slots.
func TestFinishedWorkerReturnsItsSlot(t *testing.T) {
	restore := slots.SetCapacity(3)
	defer restore()
	short := harness.Config{Algorithm: "alock", Nodes: 2, ThreadsPerNode: 1, Locks: 4,
		WarmupNS: 10_000, MeasureNS: 20_000, Seed: 1, EngineShards: 1}
	long := short
	long.Nodes, long.ThreadsPerNode, long.Locks, long.MeasureNS = 8, 4, 20, 4_000_000
	cfgs := []harness.Config{long, short, short}

	var done atomic.Int32
	finished := make(chan error, 1)
	go func() {
		_, err := Runner{Parallel: 3, OnResult: func(Progress) { done.Add(1) }}.Run(cfgs)
		finished <- err
	}()
	returned := false
	for !returned {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatal("every config finished before a worker gave its slot back")
		default:
		}
		// Peak 2: both helpers were granted; InUse below it: one is back, and
		// the long config has not reported.
		returned = slots.Peak() == 2 && slots.InUse() < 2 && done.Load() < int32(len(cfgs))
		time.Sleep(20 * time.Microsecond)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if u := slots.InUse(); u != 0 {
		t.Fatalf("%d slots leaked", u)
	}
}

// TestSweepResultsUnaffectedBySlotStarvation: the slot budget changes only
// concurrency, never results.
func TestSweepResultsUnaffectedBySlotStarvation(t *testing.T) {
	cfgs := testConfigs()[:3]
	want, err := (Runner{Parallel: 1}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	restore := slots.SetCapacity(1) // nothing to win: everything degrades serial
	defer restore()
	got, err := (Runner{Parallel: 4}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("slot starvation changed sweep results")
	}
}

// TestWithEngineShardsReportsSerialConfigs: the stamp reaches every config,
// and the one-line notice counts exactly the configs that asked for windowed
// workers but run serial — the wait-die ones; TargetOps configs run windowed
// until their stop guard hands over — silent when none do, when one worker
// was asked for, or when nothing was asked for. A negative count is not
// "nothing": it reaches every config, where the gate rejects it.
func TestWithEngineShardsReportsSerialConfigs(t *testing.T) {
	mixed := func() []harness.Config {
		cfgs := testConfigs() // all carry TargetOps
		cfgs[0].TargetOps = 0
		for i := 2; i < len(cfgs); i++ { // spinlock and mcs: abortable, as wait-die needs
			cfgs[i].TxnLocks, cfgs[i].TxnPolicy, cfgs[i].AcquireTimeout = 2, "wait-die", 15*time.Microsecond
		}
		return cfgs
	}
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{-3, ""},
		{0, ""},
		{1, ""},
		{4, "engine-shards 4: 4 of 6 configs run serial: wait-die\n"},
	} {
		var warn strings.Builder
		cfgs := WithEngineShards(mixed(), tc.shards, &warn)
		for i, c := range cfgs {
			if c.EngineShards != tc.shards {
				t.Errorf("shards=%d: config %d stamped %d", tc.shards, i, c.EngineShards)
			}
			if err := c.Validate(); (err != nil) != (tc.shards < 0) {
				t.Errorf("shards=%d: config %d: Validate says %v", tc.shards, i, err)
			}
		}
		if warn.String() != tc.want {
			t.Errorf("shards=%d: notice %q, want %q", tc.shards, warn.String(), tc.want)
		}
	}
	var warn strings.Builder
	WithEngineShards(mixed()[:1], 4, &warn)
	if warn.Len() != 0 {
		t.Errorf("all-windowed sweep printed a notice: %q", warn.String())
	}
}
