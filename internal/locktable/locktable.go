// Package locktable implements the distributed lock table of the paper's
// evaluation (Section 6): a fixed set of lock objects partitioned equally
// across the cluster's nodes, each lock occupying one 64-byte line of its
// home node's RDMA-accessible memory.
//
// Logical contention is controlled by the table size — the paper uses 20
// locks for high contention, 100 for medium and 1000 for low — and
// workload locality is expressed as the probability that a thread targets
// a lock homed on its own node.
package locktable

import (
	"fmt"
	"math/rand"

	"alock/internal/mem"
	"alock/internal/ptr"
)

// Contention levels from Section 6.
const (
	HighContentionLocks   = 20
	MediumContentionLocks = 100
	LowContentionLocks    = 1000
)

// Table is a distributed lock table.
type Table struct {
	nodes     int
	locks     []ptr.Ptr
	byNode    [][]int // byNode[n] = indices of locks homed on node n
	notByNode [][]int // notByNode[n] = indices of locks homed elsewhere
}

// HomeFunc maps a lock index to its home node given the table and cluster
// sizes; it lets layouts beyond the paper's equal partition (e.g. a
// skewed-home table) reuse all table machinery.
type HomeFunc func(i, n, nodes int) int

// RoundRobinHome is the paper's layout: lock i lives on node i % nodes (an
// equal partition up to ±1 per node).
func RoundRobinHome(i, n, nodes int) int { return i % nodes }

// SkewedHome returns a layout where hotPct percent of the locks (rounded
// down, exact for any table size) are homed on hotNode and the remainder
// round-robin over the other nodes — one node holds a disproportionate
// share of the table, modeling a primary shard or an unbalanced
// partitioner (extension beyond the paper's equal split). Threads on the
// hot node see far more local locks; everyone else's "remote" traffic
// funnels into the hot node's NIC.
func SkewedHome(hotNode, hotPct int) HomeFunc {
	return func(i, n, nodes int) int {
		if nodes == 1 {
			return 0
		}
		hot := hotNode % nodes
		hotCount := n * hotPct / 100
		if i < hotCount {
			return hot
		}
		other := (i - hotCount) % (nodes - 1)
		if other >= hot {
			other++
		}
		return other
	}
}

// New allocates n locks round-robin across the space's nodes (an equal
// partition up to ±1 per node, as in the paper).
func New(space *mem.Space, n int) *Table {
	return NewWithLayout(space, n, RoundRobinHome)
}

// NewWithLayout allocates n locks placed by the given home function.
func NewWithLayout(space *mem.Space, n int, home HomeFunc) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("locktable: table size %d must be positive", n))
	}
	t := &Table{
		nodes:     space.Nodes(),
		locks:     make([]ptr.Ptr, n),
		byNode:    make([][]int, space.Nodes()),
		notByNode: make([][]int, space.Nodes()),
	}
	for i := 0; i < n; i++ {
		node := home(i, n, t.nodes)
		if node < 0 || node >= t.nodes {
			panic(fmt.Sprintf("locktable: layout homed lock %d on node %d of %d", i, node, t.nodes))
		}
		t.locks[i] = space.AllocLine(node)
		t.byNode[node] = append(t.byNode[node], i)
		for other := 0; other < t.nodes; other++ {
			if other != node {
				t.notByNode[other] = append(t.notByNode[other], i)
			}
		}
	}
	return t
}

// Len returns the number of locks.
func (t *Table) Len() int { return len(t.locks) }

// Nodes returns the number of nodes the table is partitioned over.
func (t *Table) Nodes() int { return t.nodes }

// Ptr returns the RDMA pointer of lock i.
func (t *Table) Ptr(i int) ptr.Ptr { return t.locks[i] }

// HomeNode returns the node that stores lock i.
func (t *Table) HomeNode(i int) int { return t.locks[i].NodeID() }

// LocksOn returns the indices of locks homed on node n. The returned slice
// is shared; callers must not modify it.
func (t *Table) LocksOn(n int) []int { return t.byNode[n] }

// Pick selects a lock index for a thread on `node`: with probability
// localityPct/100 a uniformly random lock homed on that node, otherwise a
// uniformly random lock homed elsewhere. It degrades gracefully when a
// node owns no locks (falls back to remote) or owns all of them (falls
// back to local).
func (t *Table) Pick(rng *rand.Rand, node, localityPct int) int {
	local := t.byNode[node]
	wantLocal := rng.Intn(100) < localityPct
	if wantLocal && len(local) > 0 {
		return local[rng.Intn(len(local))]
	}
	remoteCount := len(t.locks) - len(local)
	if remoteCount == 0 {
		// Every lock is local to this node; locality is forced to 100%.
		return local[rng.Intn(len(local))]
	}
	// Draw uniformly among remote locks by rejection: works for any home
	// layout, and terminates because remoteCount > 0 here.
	for {
		i := rng.Intn(len(t.locks))
		if t.HomeNode(i) != node {
			return i
		}
	}
}

// Skew builds per-class Zipf rank generators for PickSkewed: rank r of a
// class is drawn with probability proportional to 1/(r+1)^s. s must be
// > 1 (the stdlib Zipf constraint); larger s is more skewed.
type Skew struct {
	localRank  *rand.Zipf
	remoteRank *rand.Zipf
}

// NewSkew creates the rank generators for a thread on `node`. Returns nil
// if s <= 1 (uniform behavior is Pick's job).
func (t *Table) NewSkew(rng *rand.Rand, node int, s float64) *Skew {
	if s <= 1 {
		return nil
	}
	sk := &Skew{}
	if n := len(t.byNode[node]); n > 0 {
		sk.localRank = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	if n := len(t.notByNode[node]); n > 0 {
		sk.remoteRank = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	return sk
}

// PickSkewed is Pick with Zipf-skewed popularity within each class: a few
// locks absorb most of the traffic, modeling hot keys in a store. The rank
// permutation is the index order, so lock byNode[node][0] is the node's
// hottest local lock. Extension beyond the paper (which uses uniform
// draws); used by the skew ablation.
func (t *Table) PickSkewed(rng *rand.Rand, node, localityPct int, sk *Skew) int {
	if sk == nil {
		return t.Pick(rng, node, localityPct)
	}
	local := t.byNode[node]
	remote := t.notByNode[node]
	wantLocal := rng.Intn(100) < localityPct
	if wantLocal && len(local) > 0 && sk.localRank != nil {
		return local[sk.localRank.Uint64()]
	}
	if len(remote) > 0 && sk.remoteRank != nil {
		return remote[sk.remoteRank.Uint64()]
	}
	return t.Pick(rng, node, localityPct)
}
