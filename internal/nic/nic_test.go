package nic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"alock/internal/model"
)

func uncongested() model.Params {
	p := model.CX3()
	p.LoopbackRXThreshold = 1 << 30 // never congest
	p.RemoteRXThreshold = 1 << 30
	p.QPCCacheCap = 1 << 20 // never miss after first touch
	return p
}

func TestIdleServiceTime(t *testing.T) {
	p := uncongested()
	n := New(0, p)
	qp := QP{0, 1, 2}
	warm := n.Submit(0, qp, false, 0) // warm the QPC
	arrival := warm + 1000            // NIC idle again by then
	done := n.Submit(arrival, qp, false, 0)
	if want := arrival + p.NICServiceNS; done != want {
		t.Fatalf("idle verb done = %d, want %d", done, want)
	}
}

func TestFIFOQueueing(t *testing.T) {
	p := uncongested()
	n := New(0, p)
	qp := QP{0, 1, 2}
	d1 := n.Submit(0, qp, false, 0)
	d2 := n.Submit(0, qp, false, 0)
	d3 := n.Submit(0, qp, false, 0)
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("completions not strictly ordered: %d %d %d", d1, d2, d3)
	}
	if d3-d2 != p.NICServiceNS {
		t.Fatalf("queued spacing = %d, want service time %d", d3-d2, p.NICServiceNS)
	}
}

func TestQPCMissPenalty(t *testing.T) {
	p := uncongested()
	n := New(0, p)
	first := n.Submit(0, QP{0, 1, 2}, false, 0) // cold: miss
	if first != p.NICServiceNS+p.QPCMissPenaltyNS {
		t.Fatalf("cold verb done = %d, want %d", first, p.NICServiceNS+p.QPCMissPenaltyNS)
	}
	st := n.Stats()
	if st.QPCMisses != 1 || st.QPCHits != 0 {
		t.Fatalf("stats after cold verb: %+v", st)
	}
	n.Submit(first+1, QP{0, 1, 2}, false, 0) // warm: hit
	if got := n.Stats().QPCHits; got != 1 {
		t.Fatalf("QPCHits = %d, want 1", got)
	}
}

func TestQPThrashing(t *testing.T) {
	// With more live connections than cache capacity, round-robin access
	// must miss every time (LRU worst case) — the QP-thrashing regime.
	p := uncongested()
	p.QPCCacheCap = 8
	n := New(0, p)
	qps := make([]QP, 12)
	for i := range qps {
		qps[i] = QP{0, i, 1}
	}
	now := int64(0)
	for round := 0; round < 5; round++ {
		for _, qp := range qps {
			now = n.Submit(now, qp, false, 0) + 1
		}
	}
	st := n.Stats()
	if st.QPCHits != 0 {
		t.Fatalf("expected pure thrashing, got %d hits", st.QPCHits)
	}
	if n.QPCOccupancy() != 8 {
		t.Fatalf("cache occupancy %d, want capacity 8", n.QPCOccupancy())
	}
	// Sixty misses, twelve connections: a context fetched again after an
	// eviction is not a new connection.
	if st.QPCMisses != 60 || st.DistinctQPs != 12 {
		t.Fatalf("QPCMisses = %d, DistinctQPs = %d, want 60 and 12", st.QPCMisses, st.DistinctQPs)
	}
}

func TestWorkingSetWithinCapacityAllHits(t *testing.T) {
	p := uncongested()
	p.QPCCacheCap = 16
	n := New(0, p)
	qps := make([]QP, 8)
	for i := range qps {
		qps[i] = QP{0, i, 1}
	}
	now := int64(0)
	for _, qp := range qps { // cold pass
		now = n.Submit(now, qp, false, 0) + 1
	}
	if got := n.Stats().DistinctQPs; got != 8 {
		t.Fatalf("DistinctQPs = %d after the cold pass, want 8", got)
	}
	n.ResetStats()
	for round := 0; round < 10; round++ {
		for _, qp := range qps {
			now = n.Submit(now, qp, false, 0) + 1
		}
	}
	st := n.Stats()
	if st.QPCMisses != 0 {
		t.Fatalf("working set fits but saw %d misses", st.QPCMisses)
	}
	if st.QPCHits != 80 {
		t.Fatalf("QPCHits = %d, want 80", st.QPCHits)
	}
	if st.DistinctQPs != 0 {
		t.Fatalf("DistinctQPs = %d on the warm passes, want 0 (hits are never first verbs)", st.DistinctQPs)
	}
}

func TestCongestionInflatesService(t *testing.T) {
	p := uncongested()
	p.RemoteRXThreshold = 4
	p.RemoteAlpha = 0.5
	p.RemoteCap = 10
	n := New(0, p)
	qp := QP{0, 1, 2}
	n.Submit(0, qp, false, 0) // cold miss first
	// Below threshold: base service.
	d1 := n.Submit(0, qp, false, 4)
	d2 := n.Submit(0, qp, false, 4)
	if d2-d1 != p.NICServiceNS {
		t.Fatalf("uncongested gap %d, want %d", d2-d1, p.NICServiceNS)
	}
	// Above threshold: inflated service, linear in the excess.
	d3 := n.Submit(0, qp, false, 6) // excess 2: factor 2
	if d3-d2 != 2*p.NICServiceNS {
		t.Fatalf("congested gap %d, want %d", d3-d2, 2*p.NICServiceNS)
	}
	if n.Stats().Slowdowns != 1 {
		t.Fatalf("slowdowns = %d, want 1", n.Stats().Slowdowns)
	}
}

func TestLoopbackThresholdLowerThanRemote(t *testing.T) {
	p := model.CX3()
	if p.LoopbackRXThreshold >= p.RemoteRXThreshold {
		t.Fatal("loopback congestion must trigger at shallower load than remote")
	}
	n := New(0, p)
	qp := QP{0, 1, 0}
	n.Submit(0, qp, true, 0)          // warm
	load := p.LoopbackRXThreshold + 4 // congests loopback, not remote
	a := n.Submit(0, qp, true, load)
	b := n.Submit(0, qp, true, load)
	loopGap := b - a
	c := n.Submit(0, qp, false, load)
	remoteGap := c - b
	if loopGap <= remoteGap {
		t.Fatalf("loopback verb (%d) should be slower than remote verb (%d) at load %d",
			loopGap, remoteGap, load)
	}
}

func TestCongestionCapBounds(t *testing.T) {
	p := uncongested()
	p.RemoteRXThreshold = 0
	p.RemoteAlpha = 100
	p.RemoteCap = 3
	n := New(0, p)
	qp := QP{0, 1, 2}
	n.Submit(0, qp, false, 0)
	a := n.Submit(0, qp, false, 1000)
	b := n.Submit(0, qp, false, 1000)
	if gap := b - a; gap > int64(float64(p.NICServiceNS)*3)+1 {
		t.Fatalf("service gap %d exceeds capped maximum %d", gap, int64(float64(p.NICServiceNS)*3))
	}
}

func TestBacklogDrains(t *testing.T) {
	p := uncongested()
	n := New(0, p)
	qp := QP{0, 1, 2}
	done := n.Submit(0, qp, false, 0)
	if n.BacklogNS(0) == 0 {
		t.Fatal("expected nonzero backlog right after submit")
	}
	if n.BacklogNS(done) != 0 {
		t.Fatal("backlog did not drain by completion time")
	}
}

func TestResetStatsKeepsQueueState(t *testing.T) {
	p := uncongested()
	n := New(0, p)
	done := n.Submit(0, QP{0, 1, 2}, false, 0)
	n.ResetStats()
	if n.Stats().Verbs != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	if n.BacklogNS(0) == 0 {
		t.Fatal("ResetStats must not clear the verb queue")
	}
	_ = done
}

// Property: completion times are monotone in arrival time and never precede
// arrival + base service.
func TestQuickSubmitMonotone(t *testing.T) {
	p := uncongested()
	f := func(arrivalDeltas []uint16) bool {
		n := New(0, p)
		now, lastDone := int64(0), int64(0)
		for i, d := range arrivalDeltas {
			now += int64(d)
			done := n.Submit(now, QP{0, i % 4, 1}, false, 0)
			if done < now+p.NICServiceNS {
				return false
			}
			if done < lastDone {
				return false // FIFO: later submits never finish earlier
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LRU never exceeds capacity and access(k) immediately after
// access(k) always hits.
func TestQuickLRU(t *testing.T) {
	f := func(keys []uint8, rawCap uint8) bool {
		capacity := int(rawCap%16) + 1
		c := newLRU(capacity)
		for _, k := range keys {
			qp := QP{0, int(k % 32), 1}.key()
			c.access(qp)
			if c.len() > capacity {
				return false
			}
			if !c.access(qp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: the QPC miss path used to allocate a node per miss. With
// the free-list pool, cycling a working set larger than capacity must
// allocate nothing once the pool is warm — QPC checks sit on the verb
// hot path, which harness.TestSteadyStateAllocsPerOp bounds per operation.
func TestLRUSteadyStateMissesAllocationFree(t *testing.T) {
	c := newLRU(8)
	keys := make([]uint64, 16) // working set 2x capacity: every access misses
	for i := range keys {
		keys[i] = QP{0, i, 1}.key()
	}
	for _, k := range keys { // warm the pool to full occupancy
		c.access(k)
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			c.access(k)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state LRU cycle allocated %v times, want 0", avg)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newLRU(2)
	a, b, d := QP{0, 1, 0}.key(), QP{0, 2, 0}.key(), QP{0, 3, 0}.key()
	c.access(a)
	c.access(b)
	c.access(a) // a most recent
	c.access(d) // evicts b
	if !c.access(a) {
		t.Error("a should still be cached")
	}
	if c.access(b) {
		t.Error("b should have been evicted")
	}
}

// structLRU is the QPC cache as it was keyed before the packed key: the
// recency list over QP structs themselves, most recent first. The reference
// TestPackedKeyLRUMatchesStructKeyed holds lru to.
type structLRU struct {
	cap   int
	order []QP
}

// access touches qp and reports a hit; on a miss into a full cache, evicted is
// the least recently used connection it displaced.
func (c *structLRU) access(qp QP) (hit bool, evicted *QP) {
	for i, have := range c.order {
		if have == qp {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = qp
			return true, nil
		}
	}
	if len(c.order) == c.cap {
		last := c.order[len(c.order)-1]
		evicted, c.order = &last, c.order[:len(c.order)-1]
	}
	c.order = append([]QP{qp}, c.order...)
	return false, evicted
}

// TestPackedKeyLRUMatchesStructKeyed drives the packed-key cache and the
// struct-keyed reference with one random access script over connections that
// differ in each field of the triple (and collide in the others): the same
// hit/miss sequence, the same victim at every eviction, the same occupancy.
func TestPackedKeyLRUMatchesStructKeyed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(24)
		got, want := newLRU(capacity), &structLRU{cap: capacity}
		hits, evictions := 0, 0
		for i := 0; i < 4000; i++ {
			qp := QP{SrcNode: rng.Intn(4), SrcThread: rng.Intn(12), DstNode: rng.Intn(4)}
			if rng.Intn(8) == 0 { // the far corners of the key's fields
				qp = QP{SrcNode: 0xffff - rng.Intn(2), SrcThread: 0xffffffff - rng.Intn(2), DstNode: 0xffff - rng.Intn(2)}
			}
			var victim uint64
			if tail := got.tail; tail != nil {
				victim = tail.key
			}
			wantHit, evicted := want.access(qp)
			if hit := got.access(qp.key()); hit != wantHit {
				t.Fatalf("seed %d access %d (%+v): packed hit=%v, struct-keyed hit=%v", seed, i, qp, hit, wantHit)
			}
			if evicted != nil {
				evictions++
				if victim != evicted.key() {
					t.Fatalf("seed %d access %d: packed evicted key %#x, struct-keyed %+v (%#x)", seed, i, victim, *evicted, evicted.key())
				}
				if _, still := got.items[victim]; still {
					t.Fatalf("seed %d access %d: %+v is still cached after its eviction", seed, i, *evicted)
				}
			}
			if got.len() != len(want.order) {
				t.Fatalf("seed %d access %d: occupancy %d, struct-keyed %d", seed, i, got.len(), len(want.order))
			}
			if wantHit {
				hits++
			}
		}
		if hits == 0 || evictions == 0 {
			t.Fatalf("seed %d: %d hits and %d evictions: the script exercised nothing", seed, hits, evictions)
		}
	}
}

// TestQPKeyRejectsWhatItCannotHold: a connection outside the packed key's
// fields must not alias another one.
func TestQPKeyRejectsWhatItCannotHold(t *testing.T) {
	for _, qp := range []QP{{1 << 16, 0, 0}, {0, 1 << 32, 0}, {0, 0, 1 << 16}, {-1, 0, 0}, {0, -1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v packed without complaint", qp)
				}
			}()
			qp.key()
		}()
	}
}
