// Package nic models the RDMA network interface controller (RNIC) of one
// node, reproducing the two scalability pitfalls the paper documents in
// Section 2:
//
//  1. Loopback / PCIe congestion: each verb occupies the NIC for a service
//     interval; once the backlog of queued verbs exceeds the RX-buffer
//     threshold, per-verb service inflates (PCIe bandwidth is being drained
//     and the RX buffer accumulates), so throughput *declines* past its
//     peak — the Figure 1 effect. Loopback traffic is doubly punishing
//     because both the TX and RX side of a verb land on the same NIC.
//
//  2. QP thrashing: the NIC caches QP contexts (QPCs) in a small on-chip
//     cache (capacity ~450 connections per Wang et al. [31]); a verb whose
//     QPC misses pays a host-memory fetch over PCIe.
//
// The NIC is driven single-threaded by the discrete-event engine; it is not
// safe for concurrent use and does not need to be.
package nic

import (
	"fmt"

	"alock/internal/model"
)

// QP identifies one queue-pair connection: a (source node, source thread,
// destination node) triple. Both the requester and the responder NIC must
// hold the connection's context to process its verbs, so both cache QPs.
type QP struct {
	SrcNode   int
	SrcThread int
	DstNode   int
}

// key packs the triple into the one word the NIC's maps are keyed by, so
// that the per-verb context lookup hashes eight bytes, not a 24-byte struct:
// node IDs in 16 bits each (an RDMA pointer has room for far fewer nodes),
// the cluster-wide thread ID in 32.
func (q QP) key() uint64 {
	if uint64(q.SrcNode)|uint64(q.DstNode) > 0xffff || uint64(q.SrcThread) > 0xffffffff {
		panic(fmt.Sprintf("nic: connection %+v does not fit the packed QP key", q))
	}
	return uint64(q.SrcNode)<<48 | uint64(q.DstNode)<<32 | uint64(q.SrcThread)
}

// Stats aggregates per-NIC counters for reporting and tests.
type Stats struct {
	Verbs        int64 // verbs serviced (TX and RX sides both count)
	QPCHits      int64
	QPCMisses    int64
	BusyNS       int64 // total service time accumulated
	MaxBacklogNS int64 // worst queueing delay observed by any verb
	Slowdowns    int64 // verbs serviced at an inflated rate
	DistinctQPs  int64 // connections this NIC has ever serviced
}

// NIC is the model of one node's RNIC.
type NIC struct {
	node   int
	p      model.Params
	freeAt int64 // virtual time at which the verb server becomes idle
	qpc    *lru
	seen   map[uint64]struct{} // every connection ever serviced, by QP.key
	stats  Stats
}

// New creates the NIC for node `node` under cost model p.
func New(node int, p model.Params) *NIC {
	return &NIC{node: node, p: p, qpc: newLRU(p.QPCCacheCap), seen: make(map[uint64]struct{})}
}

// Node returns the node this NIC belongs to.
func (n *NIC) Node() int { return n.node }

// Stats returns a copy of the NIC's counters.
func (n *NIC) Stats() Stats { return n.stats }

// ResetStats zeroes the counters (e.g. at the end of a warmup window)
// without disturbing the queue or cache state.
func (n *NIC) ResetStats() { n.stats = Stats{} }

// Submit schedules one verb (one direction: TX or RX) on this NIC, arriving
// at virtual time now, over connection qp. loopback marks verbs traversing
// the host's own PCIe loopback path; inFlight is the number of operations
// of that class concurrently touching this NIC (maintained by the engine).
// It returns the time at which the NIC finishes processing the verb.
//
// Service discipline is FIFO: the verb starts at max(now, freeAt).
// Congestion is load-dependent service inflation: every in-flight
// operation is a concurrent DMA stream sharing the host PCIe link, so once
// inFlight exceeds the class threshold, per-verb service inflates
// (Section 2: loopback traffic drains PCIe bandwidth and the RX buffer
// accumulates — hence the far lower loopback threshold). A QPC cache miss
// adds the host-memory fetch penalty.
func (n *NIC) Submit(now int64, qp QP, loopback bool, inFlight int) int64 {
	start := now
	if n.freeAt > start {
		start = n.freeAt
	}
	wait := start - now
	if wait > n.stats.MaxBacklogNS {
		n.stats.MaxBacklogNS = wait
	}

	service := n.p.NICServiceNS

	threshold, alpha, capF := n.p.RemoteRXThreshold, n.p.RemoteAlpha, n.p.RemoteCap
	if loopback {
		threshold, alpha, capF = n.p.LoopbackRXThreshold, n.p.LoopbackAlpha, n.p.LoopbackCap
	}
	if excess := inFlight - threshold; excess > 0 {
		factor := 1 + alpha*float64(excess)
		if factor > capF {
			factor = capF
		}
		service = int64(float64(service) * factor)
		n.stats.Slowdowns++
	}

	// QP context lookup: a miss stalls the verb for a PCIe fetch. Only a
	// miss can be a connection's first verb — a cached context was seen when
	// it was fetched — so the hit path pays one map lookup, not two.
	if key := qp.key(); n.qpc.access(key) {
		n.stats.QPCHits++
	} else {
		n.stats.QPCMisses++
		service += n.p.QPCMissPenaltyNS
		if _, ok := n.seen[key]; !ok {
			n.seen[key] = struct{}{}
			n.stats.DistinctQPs++
		}
	}
	n.freeAt = start + service
	n.stats.Verbs++
	n.stats.BusyNS += service
	return n.freeAt
}

// BacklogNS reports the current queueing delay a verb arriving at `now`
// would experience, for tests and instrumentation.
func (n *NIC) BacklogNS(now int64) int64 {
	if n.freeAt <= now {
		return 0
	}
	return n.freeAt - now
}

// QPCOccupancy returns the number of QP contexts currently cached.
func (n *NIC) QPCOccupancy() int { return n.qpc.len() }

func (n *NIC) String() string {
	return fmt.Sprintf("nic%d{verbs=%d qpc=%d/%d miss=%d}",
		n.node, n.stats.Verbs, n.qpc.len(), n.p.QPCCacheCap, n.stats.QPCMisses)
}

// --- LRU cache of QP contexts ---

type lruNode struct {
	key        uint64 // QP.key
	prev, next *lruNode
}

// lru is a fixed-capacity least-recently-used set of QPs, held by their
// packed keys (QP.key). Implemented with
// an intrusive doubly-linked list plus a map, both O(1) per access. Nodes
// come from a free list grown in doubling slabs (the frictionless model's
// cap of 1<<20 makes eager full preallocation too expensive), so once the
// pool covers the working set the miss path recycles evicted nodes and
// allocates nothing — QPC checks sit on the verb hot path.
type lru struct {
	cap   int
	items map[uint64]*lruNode
	head  *lruNode // most recently used
	tail  *lruNode // least recently used
	free  *lruNode // spare nodes, chained on next
	pool  int      // nodes allocated so far, never exceeds cap
}

func newLRU(capacity int) *lru {
	if capacity <= 0 {
		panic("nic: QPC cache capacity must be positive")
	}
	return &lru{cap: capacity, items: make(map[uint64]*lruNode)}
}

// grow links a fresh slab of nodes into the free list, doubling the pool
// up to cap. At most O(log cap) slabs are ever allocated; after the pool
// covers the live working set every miss reuses an evicted node.
func (c *lru) grow() {
	k := c.pool
	if k == 0 {
		k = 16
	}
	if rem := c.cap - c.pool; k > rem {
		k = rem
	}
	// Amortized growth: O(log cap) slabs per run; steady-state misses
	// recycle evicted nodes.
	nodes := make([]lruNode, k)
	for i := range nodes {
		nodes[i].next = c.free
		c.free = &nodes[i]
	}
	c.pool += k
}

func (c *lru) len() int { return len(c.items) }

// access touches key, returning true on hit. On miss the key is inserted,
// evicting the least-recently-used entry if the cache is full.
func (c *lru) access(key uint64) bool {
	if n, ok := c.items[key]; ok {
		c.moveToFront(n)
		return true
	}
	if len(c.items) >= c.cap {
		c.evict()
	}
	if c.free == nil {
		c.grow()
	}
	n := c.free
	c.free = n.next
	n.key = key
	c.items[key] = n
	c.pushFront(n)
	return false
}

func (c *lru) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lru) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lru) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lru) evict() {
	lruEntry := c.tail
	if lruEntry == nil {
		return
	}
	c.unlink(lruEntry)
	delete(c.items, lruEntry.key)
	lruEntry.next = c.free
	c.free = lruEntry
}
