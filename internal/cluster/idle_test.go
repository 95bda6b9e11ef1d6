package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/model"
	"alock/internal/sim"
	"alock/internal/slots"
)

// idleRun is one seeded service deployment's outcome: its spec, the metrics,
// and the engine's clock, Events, dispatched events, NIC stats and lock words.
type idleRun struct {
	spec                  Spec
	m                     Metrics
	now                   int64
	events, dispatched    uint64
	verbs, misses, busyNS int64
	lockWords             []uint64
}

// idleWorld builds a seeded service: 1-3 nodes, 1-4 service shards of 1-4
// workers each over an ALock or MCS table of 4-40 locks, offered 0.1-1.5x of
// what the workers can serve, with drop-tail or drop-head admission into a
// queue of 1-8 requests, half the seeds with critical-section work, a third
// with acquire deadlines and reads, some with burst phases. parkIdle selects
// the parked idle wait or the written-out loop; opts the executor.
func idleWorld(seed int64, parkIdle bool, opts ...sim.Option) idleRun {
	rng := rand.New(rand.NewSource(seed))
	nodes := 1 + rng.Intn(3)
	spec := Spec{
		Shards:          1 + rng.Intn(4),
		WorkersPerShard: 1 + rng.Intn(4),
		Clients:         1000,
		QueueCap:        1 + rng.Intn(8),
		Policy:          Policy(rng.Intn(2)),
	}
	if rng.Intn(2) == 0 {
		spec.CSWorkNS = 1 + rng.Int63n(2_000)
	}
	if rng.Intn(3) == 0 {
		spec.TimeoutNS = 1_000 + rng.Int63n(10_000)
		spec.ReadPct = rng.Intn(60)
	}
	if rng.Intn(4) == 0 {
		spec.BurstOnNS, spec.BurstOffNS = 5_000+rng.Int63n(20_000), 5_000+rng.Int63n(20_000)
	}
	// A worker serves a request in some 2-4 us plus its critical section.
	capacity := float64(spec.Shards*spec.WorkersPerShard) * 1e9 / float64(3_000+spec.CSWorkNS)
	spec.RateOPS = capacity * (0.1 + 1.4*rng.Float64())
	nlocks := 4 + rng.Intn(37)
	horizon := 60_000 + rng.Int63n(120_000)

	e := sim.New(nodes, 1<<14, model.CX3(), seed, append([]sim.Option{sim.WithMaxEvents(1 << 24)}, opts...)...)
	var err error
	table := locktable.New(e.Space(), nlocks)
	var prov locks.Provider = locks.NewALockProvider()
	if rng.Intn(3) == 0 {
		if prov, err = locks.ByName("mcs", locks.Options{}); err != nil {
			panic(err)
		}
	}
	place, err := NewPlacement([]string{"hash", "home"}[rng.Intn(2)], spec.Shards, table)
	if err != nil {
		panic(err)
	}
	ft := locks.NewFenceTable()
	c, err := install(e, table, prov, ft, place, KeyWeights(nlocks, 0), spec, parkIdle)
	if err != nil {
		panic(err)
	}
	e.Run(horizon)
	if err := ft.Drained(); err != nil {
		panic(err)
	}
	r := idleRun{spec: spec, m: c.Metrics(), now: e.Now(), events: e.Events(), dispatched: e.Events() - e.Credited()}
	for n := 0; n < nodes; n++ {
		st := e.NIC(n).Stats()
		r.verbs += st.Verbs
		r.misses += st.QPCMisses
		r.busyNS += st.BusyNS
	}
	for i := 0; i < nlocks; i++ {
		r.lockWords = append(r.lockWords, *e.Space().WordAddr(table.Ptr(i)))
	}
	return r
}

// checkIdleWorld runs a seed's service with the idle workers looking every
// pollNS on the serial executor, and with them parked on their queues'
// signals on the serial executor and on one, two and four windowed workers:
// every run must serve, shed and time the same requests, end on the same
// clock, count the same Events and leave the same NIC stats and lock words;
// the parked runs may only dispatch fewer events. (Resumes are left out: a
// look queued every pollNS turns some of its neighbours' advances in place
// into scheduled events, and the written-out loop advances some of its own
// looks in place.)
func checkIdleWorld(t *testing.T, seed int64) (written, parked idleRun) {
	written = idleWorld(seed, false)
	for _, ex := range []struct {
		name string
		opts []sim.Option
	}{{"serial", nil}, {"width 1", []sim.Option{sim.WithShards(1)}}, {"width 2", []sim.Option{sim.WithShards(2)}}, {"width 4", []sim.Option{sim.WithShards(4)}}} {
		got := idleWorld(seed, true, ex.opts...)
		if !reflect.DeepEqual(written.m, got.m) {
			w, g := written.m, got.m
			t.Fatalf("seed %d (%+v), parked, %s: metrics differ\nloop:   offered %d served %d shed %d timeouts %d, last at %dns\nparked: offered %d served %d shed %d timeouts %d, last at %dns",
				seed, written.spec, ex.name, w.Offered, w.Served, w.Shed, w.Timeouts, w.LastRecNS, g.Offered, g.Served, g.Shed, g.Timeouts, g.LastRecNS)
		}
		w, g := written, got
		w.m, g.m, w.dispatched, g.dispatched = Metrics{}, Metrics{}, 0, 0
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("seed %d, parked, %s: runs ended differently\nloop:   %v\nparked: %v", seed, ex.name, w, g)
		}
		if got.dispatched > written.dispatched {
			t.Fatalf("seed %d, parked, %s: dispatched %d events, the loop %d", seed, ex.name, got.dispatched, written.dispatched)
		}
		parked = got
	}
	return written, parked
}

// TestIdleWaitMatchesLoop: the parked idle wait against the written-out
// WorkLoop over a few dozen seeded deployments (idleWorld), under both
// admission policies, with and without critical-section work, at widths 1, 2
// and 4; and the seeds do park workers, serve requests and shed some.
func TestIdleWaitMatchesLoop(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	var served, shed int64
	var looped, dispatched uint64
	cs := 0
	for seed := int64(1); seed <= 40; seed++ {
		written, parked := checkIdleWorld(t, seed)
		served += parked.m.Served
		shed += parked.m.Shed
		looped += written.dispatched
		dispatched += parked.dispatched
		if parked.spec.CSWorkNS > 0 && parked.m.Served > 0 {
			cs++
		}
	}
	t.Logf("%d served, %d shed, %d seeds serving critical sections; the loops dispatched %d events, the parked waits %d", served, shed, cs, looped, dispatched)
	if served < 1000 || shed < 100 || cs < 10 || dispatched*10 > looped*9 {
		t.Fatalf("%d served, %d shed, %d seeds with critical sections, %d of the loops' %d events dispatched: the seeds do not exercise the wait",
			served, shed, cs, dispatched, looped)
	}
}

// FuzzIdleWaitMatchesLoop is TestIdleWaitMatchesLoop over more deployments.
//
//	go test ./internal/cluster -run '^$' -fuzz '^FuzzIdleWaitMatchesLoop$' -fuzztime 15s
func FuzzIdleWaitMatchesLoop(f *testing.F) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, seed := range []int64{1, 2, 3, 41, -5, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkIdleWorld(t, seed) })
}
