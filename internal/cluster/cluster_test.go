package cluster

import (
	"testing"

	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/mem"
	"alock/internal/model"
	"alock/internal/sim"
	"alock/internal/slots"
)

func testTable(t *testing.T, nodes, locks int) *locktable.Table {
	t.Helper()
	return locktable.New(mem.NewSpace(nodes, 1<<16), locks)
}

// TestPlacementCoversAllKeys: every placement must send every key to a
// shard in range, and every shard of a reasonably sized deployment must
// own at least one key (no silent dead shards).
func TestPlacementCoversAllKeys(t *testing.T) {
	table := testTable(t, 4, 200)
	for _, name := range []string{"hash", "home"} {
		p, err := NewPlacement(name, 4, table)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("placement name %q, want %q", p.Name(), name)
		}
		owned := make([]int, 4)
		for k := 0; k < 200; k++ {
			s := p.Shard(k)
			if s < 0 || s >= 4 {
				t.Fatalf("%s: key %d -> shard %d", name, k, s)
			}
			owned[s]++
		}
		for s, n := range owned {
			if n == 0 {
				t.Errorf("%s: shard %d owns no keys", name, s)
			}
		}
	}
	if _, err := NewPlacement("bogus", 4, table); err == nil {
		t.Error("bogus placement name accepted")
	}
}

// TestPlacementDeterministic: the same key maps to the same shard across
// independently constructed placements.
func TestPlacementDeterministic(t *testing.T) {
	table := testTable(t, 4, 100)
	a, _ := NewPlacement("hash", 4, table)
	b, _ := NewPlacement("hash", 4, table)
	for k := 0; k < 100; k++ {
		if a.Shard(k) != b.Shard(k) {
			t.Fatalf("hash placement unstable at key %d: %d vs %d", k, a.Shard(k), b.Shard(k))
		}
	}
}

func maxShardLoad(p Placement, weights []float64, shards int) float64 {
	load := make([]float64, shards)
	for k, w := range weights {
		load[p.Shard(k)] += w
	}
	max := load[0]
	for _, l := range load[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// TestRebalanceReducesMaxLoad: under Zipf-skewed weights the greedy
// hot-key rebalance must not increase the most-loaded shard's share, and
// must strictly reduce it when the base placement stacks hot keys.
func TestRebalanceReducesMaxLoad(t *testing.T) {
	table := testTable(t, 4, 100)
	weights := KeyWeights(100, 1.5)
	for _, name := range []string{"hash", "home"} {
		base, _ := NewPlacement(name, 4, table)
		before := maxShardLoad(base, weights, 4)
		reb := RebalanceHotKeys(base, weights, 4)
		after := maxShardLoad(reb, weights, 4)
		if after > before+1e-12 {
			t.Errorf("%s: rebalance increased max load %.4f -> %.4f", name, before, after)
		}
	}
	// home placement on 4 shards stacks keys 0 and 4 (both hot under
	// Zipf 1.5) onto shard 0; rebalance must split them.
	base, _ := NewPlacement("home", 4, table)
	reb := RebalanceHotKeys(base, weights, 4)
	if reb == base {
		t.Fatal("rebalance returned the base placement despite stacked hot keys")
	}
	if before, after := maxShardLoad(base, weights, 4), maxShardLoad(reb, weights, 4); after >= before {
		t.Errorf("home: rebalance did not reduce max load (%.4f -> %.4f)", before, after)
	}
}

// TestRebalanceNoopCases: uniform weights or a single shard must return
// the base placement untouched.
func TestRebalanceNoopCases(t *testing.T) {
	table := testTable(t, 4, 100)
	base, _ := NewPlacement("hash", 4, table)
	if got := RebalanceHotKeys(base, KeyWeights(100, 0), 4); got != base {
		t.Error("uniform weights should be a no-op")
	}
	if got := RebalanceHotKeys(base, KeyWeights(100, 1.5), 1); got != base {
		t.Error("single shard should be a no-op")
	}
}

// TestShardQueueFIFO: push/pop preserves arrival order as the ring wraps.
func TestShardQueueFIFO(t *testing.T) {
	sh := newShard(0, 0, nil, 16)
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 10; i++ {
			sh.push(request{client: i})
		}
		for i := int64(0); i < 10; i++ {
			r, ok := sh.pop()
			if !ok || r.client != i {
				t.Fatalf("round %d: pop %d = (%v, %v)", round, i, r.client, ok)
			}
		}
		if _, ok := sh.pop(); ok {
			t.Fatal("pop from empty queue succeeded")
		}
	}
	if sh.maxQueueLen != 10 {
		t.Errorf("maxQueueLen = %d, want 10", sh.maxQueueLen)
	}
}

// TestAdmissionPolicies: drop-tail sheds the newcomer, drop-head sheds
// the oldest; both keep the queue at capacity and count every shed.
func TestAdmissionPolicies(t *testing.T) {
	mk := func(policy Policy) (*Cluster, *shard) {
		c := &Cluster{spec: Spec{QueueCap: 2, Policy: policy, WarmupNS: 0}}
		sh := newShard(0, 0, nil, c.spec.QueueCap)
		c.sh = []*shard{sh}
		return c, sh
	}

	c, sh := mk(DropTail)
	for i := int64(0); i < 4; i++ {
		c.admit(sh, request{client: i, arriveNS: i})
	}
	if sh.offered != 4 || sh.shed != 2 || sh.qlen() != 2 {
		t.Fatalf("drop-tail: offered=%d shed=%d qlen=%d", sh.offered, sh.shed, sh.qlen())
	}
	if r, _ := sh.pop(); r.client != 0 {
		t.Errorf("drop-tail kept %d at head, want oldest (0)", r.client)
	}

	c, sh = mk(DropHead)
	for i := int64(0); i < 4; i++ {
		c.admit(sh, request{client: i, arriveNS: i})
	}
	if sh.offered != 4 || sh.shed != 2 || sh.qlen() != 2 {
		t.Fatalf("drop-head: offered=%d shed=%d qlen=%d", sh.offered, sh.shed, sh.qlen())
	}
	if r, _ := sh.pop(); r.client != 2 {
		t.Errorf("drop-head kept %d at head, want freshest window start (2)", r.client)
	}
}

// TestAdmissionRingStaysBounded: 10^5 admissions through a full queue, with a
// pop after every third, keep the admission ring at exactly QueueCap entries
// under both policies. The survivors leave in arrival order, the queue never
// reports more than its capacity, and every offered request is served or shed.
// (The queue never drains here, so an append-only queue whose head resets
// only on a drain grows by a slot per admitted request.)
func TestAdmissionRingStaysBounded(t *testing.T) {
	const queueCap, arrivals = 64, 100_000
	for _, policy := range []Policy{DropTail, DropHead} {
		t.Run(policy.String(), func(t *testing.T) {
			c := &Cluster{spec: Spec{QueueCap: queueCap, Policy: policy}}
			sh := newShard(0, 0, nil, queueCap)
			c.sh = []*shard{sh}
			last := int64(-1)
			take := func() {
				r, ok := sh.pop()
				if !ok {
					t.Fatal("pop from a queue admit just filled")
				}
				if r.client <= last {
					t.Fatalf("request %d left after %d", r.client, last)
				}
				last = r.client
				sh.served++
			}
			for i := int64(0); i < arrivals; i++ {
				c.admit(sh, request{client: i, arriveNS: i})
				if i%3 == 2 {
					take()
				}
			}
			for sh.qlen() > 0 {
				take()
			}
			if len(sh.queue) != queueCap || cap(sh.queue) != queueCap {
				t.Errorf("admission ring is %d entries (cap %d), want the %d newShard allocated",
					len(sh.queue), cap(sh.queue), queueCap)
			}
			if sh.maxQueueLen != queueCap {
				t.Errorf("maxQueueLen = %d, want the capacity %d", sh.maxQueueLen, queueCap)
			}
			if sh.offered != arrivals || sh.offered != sh.served+sh.shed || sh.shed < arrivals/2 {
				t.Errorf("offered %d, served %d, shed %d: want %d offered = served + shed, most of them shed",
					sh.offered, sh.served, sh.shed, arrivals)
			}
		})
	}
}

// TestFinalizeSweepsQueued: leftover queued requests become shed, making
// offered == served + shed exact.
func TestFinalizeSweepsQueued(t *testing.T) {
	c := &Cluster{spec: Spec{QueueCap: 8, WarmupNS: 100}}
	sh := newShard(0, 0, nil, c.spec.QueueCap)
	c.sh = []*shard{sh}
	for i := int64(0); i < 5; i++ {
		c.admit(sh, request{client: i, arriveNS: i * 50}) // arrivals 0,50,..200: two post-warmup
	}
	m := c.Metrics()
	if m.Offered != 5 || m.Served != 0 || m.Shed != 5 {
		t.Fatalf("after sweep: offered=%d served=%d shed=%d", m.Offered, m.Served, m.Shed)
	}
	if m.RecShed != 3 {
		t.Errorf("recorded shed = %d, want 3 (arrivals at 100,150,200)", m.RecShed)
	}
	c.Finalize() // idempotent
	if m2 := c.Metrics(); m2.Shed != 5 {
		t.Errorf("double finalize changed shed to %d", m2.Shed)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{Shards: 0, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: 4},
		{Shards: 2, WorkersPerShard: 0, Clients: 10, RateOPS: 1000, QueueCap: 4},
		{Shards: 2, WorkersPerShard: 2, Clients: 0, RateOPS: 1000, QueueCap: 4},
		{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 0, QueueCap: 4},
		{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: 0},
		{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: maxQueueCap + 1},
		{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: 4, ReadPct: 101},
		{Shards: 2, WorkersPerShard: 2, Clients: 10, RateOPS: 1000, QueueCap: 4, BurstOnNS: 5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{"": DropTail, "drop-tail": DropTail, "drop-head": DropHead} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// tinyService installs a two-shard service over an eight-lock ALock table on
// a two-node engine, runs it to the horizon and returns the engine and the
// service's metrics, failing the test if a guard was leaked or released twice
// (locks.FenceTable.Drained) or a request was lost.
func tinyService(t *testing.T, horizonNS int64, spec Spec, opts ...sim.Option) (*sim.Engine, Metrics) {
	t.Helper()
	e := sim.New(2, 1<<16, model.CX3(), 1, opts...)
	table := locktable.New(e.Space(), 8)
	prov := locks.NewALockProvider()
	place, err := NewPlacement("home", 2, table)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards, spec.Clients = 2, 1000
	ft := locks.NewFenceTable()
	c, err := Install(e, table, prov, ft, place, KeyWeights(8, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(horizonNS)
	if err := ft.Drained(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Offered != m.Served+m.Shed {
		t.Fatalf("conservation violated: offered %d != served %d + shed %d", m.Offered, m.Served, m.Shed)
	}
	return e, m
}

// TestWaitingServiceCostsNoResumes: what the service's threads do while they
// wait is Go state only, so it must not cost a thread switch, and an idle
// worker parks on its queue's signal, so its looks cost no dispatched event
// either. Idle workers (no arrival ever comes) count three times as many looks
// over three times the horizon, and are switched to exactly as often and
// dispatch the same events (Events less Credited) — a start, the horizon's
// look, a stop; generators whose arrivals all find the workers busy admit and
// shed hundreds of requests between their two switches, to start and to stop.
// Under both executors, with conservation exact.
func TestWaitingServiceCostsNoResumes(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	const horizon = 1_000_000
	for _, exec := range []struct {
		name string
		opts []sim.Option
	}{{"serial", nil}, {"windowed", []sim.Option{sim.WithShards(2)}}} {
		t.Run(exec.name, func(t *testing.T) {
			// One arrival a second: none within milliseconds.
			idle := Spec{WorkersPerShard: 3, RateOPS: 1, QueueCap: 4, CSWorkNS: 100}
			short, m := tinyService(t, horizon, idle, exec.opts...)
			long, _ := tinyService(t, 3*horizon, idle, exec.opts...)
			if m.Offered != 0 || short.Events() < 10_000 || long.Events() < 3*short.Events()-100 {
				t.Fatalf("idle service: %d offered, %d events to the horizon, %d to three times it; want none, and polls in proportion",
					m.Offered, short.Events(), long.Events())
			}
			if short.Resumes() != long.Resumes() || short.Resumes() > 4*8 {
				t.Errorf("idle service: %d resumes to the horizon, %d to three times it; want the same handful (8 threads start and stop)",
					short.Resumes(), long.Resumes())
			}
			shortRun, longRun := short.Events()-short.Credited(), long.Events()-long.Credited()
			if shortRun != longRun || shortRun > 8*8 {
				t.Errorf("idle service: %d events dispatched to the horizon, %d to three times it; want the same handful (8 threads start, look at the horizon and stop)",
					shortRun, longRun)
			}

			// Each shard's one worker takes the first request and holds its lock
			// past the horizon: every later arrival is queued or shed by the
			// generator alone.
			busy := Spec{WorkersPerShard: 1, RateOPS: 4e5, QueueCap: 1, CSWorkNS: 2 * horizon}
			e, m := tinyService(t, horizon, busy, exec.opts...)
			if m.Offered < 200 || m.Served != 2 || m.Shed != m.Offered-2 {
				t.Fatalf("busy service: offered %d served %d shed %d; want hundreds, 2, the rest", m.Offered, m.Served, m.Shed)
			}
			// Two generators at two resumes; two workers at a start, a stop and
			// one served request each (an uncontended acquire, the hold, the release).
			if got := e.Resumes(); got > 4+2*16 {
				t.Errorf("busy service: %d arrivals cost %d resumes; the generators' share must not grow with arrivals", m.Offered, got)
			}
			t.Logf("idle: %d events, %d dispatched, %d resumes; busy: %d arrivals, %d events, %d resumes",
				long.Events(), longRun, long.Resumes(), m.Offered, e.Events(), e.Resumes())
		})
	}
}

// TestCriticalSectionReleasesOnce: a worker that serves a request with a
// critical section (CSWorkNS > 0) releases its guard exactly once, after the
// section — a second release, on that branch or after it, is a stray that the
// fence table reports — under both executors, with every served request held
// at least the section's length.
func TestCriticalSectionReleasesOnce(t *testing.T) {
	restore := slots.SetCapacity(8)
	defer restore()
	for _, exec := range []struct {
		name string
		opts []sim.Option
	}{{"serial", nil}, {"windowed", []sim.Option{sim.WithShards(2)}}} {
		t.Run(exec.name, func(t *testing.T) {
			const cs = 700
			_, m := tinyService(t, 200_000, Spec{WorkersPerShard: 2, RateOPS: 2e6, QueueCap: 4, CSWorkNS: cs}, exec.opts...)
			if m.Served < 100 || m.Hold.Min() < cs {
				t.Fatalf("served %d, shortest hold %d ns; want a hundred or more, each held at least %d ns", m.Served, m.Hold.Min(), cs)
			}
		})
	}
}
