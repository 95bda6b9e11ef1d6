// Package mem implements the RDMA-accessible memory substrate.
//
// In the paper's system model (Section 4), all data and metadata live in an
// RDMA-accessible shared memory partitioned among the nodes. This package
// models that partition: each node owns a Region of 8-byte words, and a
// Space aggregates the per-node regions of a cluster into a single address
// space navigated by ptr.Ptr values.
//
// The unit of access is the 8-byte word — the granularity at which RDMA
// atomics and (single cache line) local/remote atomicity are defined
// (Table 1 of the paper). Engines perform loads, stores and CAS directly on
// word addresses obtained from WordAddr; the allocator in this package only
// hands out placement, it never touches word contents after zeroing.
//
// Allocation is 64-byte aligned by default, matching the paper's padding of
// every piece of lock metadata to a cache line to prevent false sharing
// (Figure 3).
//
// A region's size is a capacity — the range of valid offsets — not a
// footprint. Backing memory is demand-paged: a region starts as a page
// table only, and a fixed-size zeroed page comes into existence the first
// time any word on it is addressed. A run therefore pays, in host memory
// and in zeroing time, for the pages it touches (one per node for a lock
// table of a few hundred lines) and not for the 1 Mi words per node that
// experiments provision by default. Nothing simulated depends on which
// pages are resident: an untouched in-range word reads zero either way.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"alock/internal/ptr"
)

// WordsPerCacheLine is the number of 8-byte words in a 64-byte cache line,
// the alignment unit for all lock metadata in the paper.
const WordsPerCacheLine = 8

// pageWords is the unit of demand paging: 4 Ki words (32 KiB), large enough
// that a lock table's lines share one page, small enough that a touched
// page costs microseconds to zero.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]uint64

// Region is one node's RDMA-accessible memory: `Size()` addressable 8-byte
// words plus a thread-safe allocator over them.
//
// The words are backed by demand-paged memory. Size is the capacity; only
// pages that have been addressed are resident. A page is materialised
// zeroed on the first WordAddr that falls on it and then never moves or
// goes away, so an address obtained from WordAddr stays valid — and keeps
// naming the same word — across any later Alloc, Free or WordAddr; the
// real-goroutine engine (internal/rt) holds such addresses while other
// goroutines allocate. Its goroutines also race to the first touch of a
// page, so the page table is published with an atomic compare-and-swap:
// exactly one page wins, every racer returns an address on the winner, and
// no store is lost to a discarded page.
//
// Word 0 of every region is reserved at construction so that no object is
// ever placed at offset 0; this keeps ptr.Null (node 0, offset 0)
// unambiguous everywhere.
type Region struct {
	node  int
	size  uint64                 // capacity in words
	pages []atomic.Pointer[page] // page table; nil = untouched, reads as zero

	mu   sync.Mutex
	next uint64           // bump pointer (in words)
	free map[int][]uint64 // size class (words) -> freed offsets
	used map[uint64]int   // live offset -> size in words
}

// NewRegion creates a region of `words` 8-byte words owned by `node`.
// The minimum size is one cache line; word 0 is reserved. Only the page
// table is allocated here.
func NewRegion(node, words int) *Region {
	if words < WordsPerCacheLine {
		words = WordsPerCacheLine
	}
	return &Region{
		node:  node,
		size:  uint64(words),
		pages: make([]atomic.Pointer[page], (words+pageMask)>>pageShift),
		next:  WordsPerCacheLine, // burn line 0: keeps offset 0 unallocated
		free:  make(map[int][]uint64),
		used:  make(map[uint64]int),
	}
}

// Node returns the ID of the node owning this region.
func (r *Region) Node() int { return r.node }

// Size returns the region capacity in words (not the resident footprint).
func (r *Region) Size() int { return int(r.size) }

// WordAddr returns the address of the word at `offset`, for direct atomic
// access by an engine. The address is stable for the life of the region.
// It panics if offset is out of range — an out-of-range RDMA access is a
// programming error in this system, not a runtime condition to be handled.
func (r *Region) WordAddr(offset uint64) *uint64 {
	if offset >= r.size {
		panic(fmt.Sprintf("mem: node %d offset %#x out of range (region %d words)",
			r.node, offset, r.size))
	}
	slot := &r.pages[offset>>pageShift]
	pg := slot.Load()
	if pg == nil {
		pg = firstTouch(slot)
	}
	return &pg[offset&pageMask]
}

// firstTouch materialises the page behind slot. Racing callers each bring a
// fresh page; the compare-and-swap keeps one and the losers adopt it.
func firstTouch(slot *atomic.Pointer[page]) *page {
	pg := new(page)
	if slot.CompareAndSwap(nil, pg) {
		return pg
	}
	return slot.Load()
}

// roundUp rounds n up to a multiple of align (align must be a power of two).
func roundUp(n, align uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}

// Alloc allocates `words` words aligned to `alignWords` and returns a Ptr
// to the first word. A freed block of the same rounded size is reused when
// its offset satisfies the requested alignment. The block is zeroed. Alloc
// panics if the region is exhausted: the simulated cluster is provisioned up
// front and exhaustion means the experiment configuration is wrong.
func (r *Region) Alloc(words, alignWords int) ptr.Ptr {
	if words <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	if alignWords <= 0 {
		alignWords = 1
	}
	if alignWords&(alignWords-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", alignWords))
	}
	// Round the block size up to the alignment so that freelist reuse
	// preserves alignment for all future users of the block.
	size := int(roundUp(uint64(words), uint64(alignWords)))

	r.mu.Lock()
	defer r.mu.Unlock()

	// A size class is shared by every alignment that rounds to it, so take
	// the newest freed block whose offset this request can use.
	list := r.free[size]
	for i := len(list) - 1; i >= 0; i-- {
		off := list[i]
		if off&uint64(alignWords-1) != 0 {
			continue
		}
		r.free[size] = append(list[:i], list[i+1:]...)
		r.used[off] = size
		r.zeroLocked(off, size)
		return ptr.Pack(r.node, off)
	}

	off := roundUp(r.next, uint64(alignWords))
	if off+uint64(size) > r.size {
		panic(fmt.Sprintf("mem: node %d region exhausted (want %d words at %#x, cap %d)",
			r.node, size, off, r.size))
	}
	r.next = off + uint64(size)
	r.used[off] = size
	r.zeroLocked(off, size)
	return ptr.Pack(r.node, off)
}

// AllocLine allocates one zeroed, 64-byte-aligned cache line — the shape of
// every descriptor and lock in the paper (Figure 3).
func (r *Region) AllocLine() ptr.Ptr {
	return r.Alloc(WordsPerCacheLine, WordsPerCacheLine)
}

// Free returns a previously allocated block to the region's freelist.
// Freeing an unknown pointer panics (double free / wild free).
func (r *Region) Free(p ptr.Ptr) {
	if p.NodeID() != r.node {
		panic(fmt.Sprintf("mem: Free of %v on region for node %d", p, r.node))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size, ok := r.used[p.Offset()]
	if !ok {
		panic(fmt.Sprintf("mem: Free of unallocated pointer %v", p))
	}
	delete(r.used, p.Offset())
	r.free[size] = append(r.free[size], p.Offset())
}

// LiveBlocks returns the number of currently allocated blocks, for tests
// and leak accounting.
func (r *Region) LiveBlocks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.used)
}

// zeroLocked zeroes size words at off, page by page. An untouched page is
// zero already and stays unmaterialised. Caller holds r.mu.
func (r *Region) zeroLocked(off uint64, size int) {
	for end := off + uint64(size); off < end; {
		n := min(end-off, pageWords-off&pageMask)
		if pg := r.pages[off>>pageShift].Load(); pg != nil {
			clear(pg[off&pageMask:][:n])
		}
		off += n
	}
}

// Space is the cluster-wide RDMA-accessible address space: one Region per
// node, indexed by node ID.
type Space struct {
	regions []*Region
	// audit, when set, observes every access through the Space before it
	// happens, keyed by the node whose region is touched. The simulation
	// engine installs it in test binaries to panic on out-of-protocol
	// cross-shard touches (a word owned by node A mutated from node B's
	// timeline without going through the verb protocol).
	audit func(node int)
}

// NewSpace creates a Space with `nodes` regions of `wordsPerNode` words each.
func NewSpace(nodes, wordsPerNode int) *Space {
	if nodes <= 0 || nodes > ptr.MaxNodes {
		panic(fmt.Sprintf("mem: node count %d out of range (1..%d)", nodes, ptr.MaxNodes))
	}
	s := &Space{regions: make([]*Region, nodes)}
	for i := range s.regions {
		s.regions[i] = NewRegion(i, wordsPerNode)
	}
	return s
}

// SetAudit installs fn as the access auditor: it is called with the target
// node before every WordAddr resolution and allocator operation routed
// through the Space. Install before any concurrent use (the field is read
// unsynchronized on the access hot path); pass nil to disable. A Space's
// regions are reachable from other packages only through these accessors,
// so nothing outside this package can bypass the auditor.
func (s *Space) SetAudit(fn func(node int)) { s.audit = fn }

// Nodes returns the number of nodes in the space.
func (s *Space) Nodes() int { return len(s.regions) }

// region returns node `id`'s region. It is unexported so that the audited
// accessors below are the only way into a Space from another package.
func (s *Space) region(id int) *Region {
	if id < 0 || id >= len(s.regions) {
		panic(fmt.Sprintf("mem: node %d out of range (space has %d nodes)", id, len(s.regions)))
	}
	return s.regions[id]
}

// WordAddr resolves a Ptr to the address of its backing word.
func (s *Space) WordAddr(p ptr.Ptr) *uint64 {
	if s.audit != nil {
		s.audit(p.NodeID())
	}
	return s.region(p.NodeID()).WordAddr(p.Offset())
}

// Alloc allocates on the given node. See Region.Alloc.
func (s *Space) Alloc(node, words, alignWords int) ptr.Ptr {
	if s.audit != nil {
		s.audit(node)
	}
	return s.region(node).Alloc(words, alignWords)
}

// AllocLine allocates one cache line on the given node. See Region.AllocLine.
func (s *Space) AllocLine(node int) ptr.Ptr {
	if s.audit != nil {
		s.audit(node)
	}
	return s.region(node).AllocLine()
}

// Free releases p back to its node's region.
func (s *Space) Free(p ptr.Ptr) {
	if s.audit != nil {
		s.audit(p.NodeID())
	}
	s.region(p.NodeID()).Free(p)
}
