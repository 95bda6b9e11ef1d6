package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"alock/internal/ptr"
)

func TestAllocAlignment(t *testing.T) {
	r := NewRegion(1, 4096)
	for i := 0; i < 32; i++ {
		p := r.AllocLine()
		if p.Offset()%WordsPerCacheLine != 0 {
			t.Fatalf("AllocLine returned unaligned offset %#x", p.Offset())
		}
		if p.NodeID() != 1 {
			t.Fatalf("AllocLine node = %d, want 1", p.NodeID())
		}
	}
}

func TestAllocNeverReturnsNull(t *testing.T) {
	// Node 0 offset 0 is the Null pointer; the region must never hand it out.
	r := NewRegion(0, 4096)
	for i := 0; i < 64; i++ {
		if p := r.Alloc(1, 1); p.IsNull() {
			t.Fatal("Alloc returned the Null pointer")
		}
	}
}

func TestAllocDistinctNonOverlapping(t *testing.T) {
	r := NewRegion(2, 1<<14)
	type blk struct{ off, size uint64 }
	var blks []blk
	sizes := []int{1, 3, 8, 8, 16, 5}
	for _, sz := range sizes {
		p := r.Alloc(sz, 8)
		blks = append(blks, blk{p.Offset(), uint64(sz)})
	}
	for i := range blks {
		for j := i + 1; j < len(blks); j++ {
			a, b := blks[i], blks[j]
			if a.off < b.off+b.size && b.off < a.off+a.size {
				t.Fatalf("blocks overlap: %+v and %+v", a, b)
			}
		}
	}
}

func TestFreeReuse(t *testing.T) {
	r := NewRegion(0, 4096)
	p := r.AllocLine()
	addr := r.WordAddr(p.Offset())
	*addr = 0xdead
	r.Free(p)
	q := r.AllocLine()
	if q.Offset() != p.Offset() {
		t.Fatalf("freed line not reused: got %#x want %#x", q.Offset(), p.Offset())
	}
	if *r.WordAddr(q.Offset()) != 0 {
		t.Fatal("reused block not zeroed")
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	r := NewRegion(0, 4096)
	defer func() {
		if recover() == nil {
			t.Error("Free of unallocated pointer did not panic")
		}
	}()
	r.Free(ptr.Pack(0, 64))
}

func TestDoubleFreePanics(t *testing.T) {
	r := NewRegion(0, 4096)
	p := r.AllocLine()
	r.Free(p)
	defer func() {
		if recover() == nil {
			t.Error("double Free did not panic")
		}
	}()
	r.Free(p)
}

func TestFreeWrongNodePanics(t *testing.T) {
	r := NewRegion(1, 4096)
	defer func() {
		if recover() == nil {
			t.Error("Free of foreign-node pointer did not panic")
		}
	}()
	r.Free(ptr.Pack(2, 64))
}

func TestExhaustionPanics(t *testing.T) {
	r := NewRegion(0, 16) // one line reserved + one allocatable
	r.AllocLine()
	defer func() {
		if recover() == nil {
			t.Error("allocation past region end did not panic")
		}
	}()
	r.AllocLine()
}

func TestWordAddrOutOfRangePanics(t *testing.T) {
	r := NewRegion(0, 64)
	defer func() {
		if recover() == nil {
			t.Error("WordAddr out of range did not panic")
		}
	}()
	r.WordAddr(64)
}

func TestLiveBlocks(t *testing.T) {
	r := NewRegion(0, 4096)
	if r.LiveBlocks() != 0 {
		t.Fatalf("fresh region LiveBlocks = %d", r.LiveBlocks())
	}
	p := r.AllocLine()
	q := r.AllocLine()
	if r.LiveBlocks() != 2 {
		t.Fatalf("LiveBlocks = %d, want 2", r.LiveBlocks())
	}
	r.Free(p)
	r.Free(q)
	if r.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks after frees = %d, want 0", r.LiveBlocks())
	}
}

func TestSpaceResolution(t *testing.T) {
	s := NewSpace(4, 1024)
	if s.Nodes() != 4 {
		t.Fatalf("Nodes() = %d", s.Nodes())
	}
	p := s.AllocLine(3)
	if p.NodeID() != 3 {
		t.Fatalf("AllocLine(3) on node %d", p.NodeID())
	}
	*s.WordAddr(p) = 42
	if *s.region(3).WordAddr(p.Offset()) != 42 {
		t.Fatal("WordAddr did not resolve to node 3's region")
	}
	s.Free(p)
}

func TestSpaceBadNodeCountPanics(t *testing.T) {
	for _, n := range []int{0, -1, ptr.MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", n)
				}
			}()
			NewSpace(n, 64)
		}()
	}
}

func TestConcurrentAlloc(t *testing.T) {
	r := NewRegion(0, 1<<16)
	var wg sync.WaitGroup
	const workers, per = 8, 64
	offsets := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				offsets[w] = append(offsets[w], r.AllocLine().Offset())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, list := range offsets {
		for _, off := range list {
			if seen[off] {
				t.Fatalf("offset %#x allocated twice", off)
			}
			seen[off] = true
		}
	}
}

// Property: any sequence of aligned allocations yields aligned,
// pairwise-disjoint blocks.
func TestQuickAllocDisjoint(t *testing.T) {
	f := func(rawSizes []uint8) bool {
		r := NewRegion(0, 1<<18)
		type blk struct{ off, size uint64 }
		var blks []blk
		for _, raw := range rawSizes {
			sz := int(raw%32) + 1
			p := r.Alloc(sz, 8)
			if p.Offset()%8 != 0 {
				return false
			}
			// Size is rounded up to alignment inside Alloc.
			rounded := uint64((sz + 7) &^ 7)
			blks = append(blks, blk{p.Offset(), rounded})
		}
		for i := range blks {
			for j := i + 1; j < len(blks); j++ {
				a, b := blks[i], blks[j]
				if a.off < b.off+b.size && b.off < a.off+a.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: alloc/free/alloc of the same size class reuses memory and the
// reused block is always zeroed.
func TestQuickReuseZeroed(t *testing.T) {
	f := func(vals []uint64) bool {
		r := NewRegion(0, 1<<16)
		var ps []ptr.Ptr
		for range vals {
			ps = append(ps, r.AllocLine())
		}
		for i, p := range ps {
			*r.WordAddr(p.Offset()) = vals[i] | 1 // ensure nonzero
			r.Free(p)
		}
		for range ps {
			p := r.AllocLine()
			for w := uint64(0); w < WordsPerCacheLine; w++ {
				if *r.WordAddr(p.Offset() + w) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAuditObservesSpaceAccesses: the auditor sees the target node of every
// Space-routed access — word resolution, allocation, free — and can veto by
// panicking. Region-level access bypasses it, and only this package has it.
func TestAuditObservesSpaceAccesses(t *testing.T) {
	s := NewSpace(3, 64)
	var seen []int
	s.SetAudit(func(node int) { seen = append(seen, node) })

	p := s.AllocLine(2)
	_ = s.WordAddr(p)
	q := s.Alloc(1, 1, 1)
	s.Free(q)
	s.Free(p)

	want := []int{2, 2, 1, 1, 2}
	if len(seen) != len(want) {
		t.Fatalf("auditor saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("auditor saw %v, want %v", seen, want)
		}
	}

	// Region-level access bypasses the auditor.
	seen = seen[:0]
	_ = s.region(0).WordAddr(8)
	if len(seen) != 0 {
		t.Fatalf("Region access reached the auditor: %v", seen)
	}

	// Disabled auditor observes nothing.
	s.SetAudit(nil)
	_ = s.WordAddr(p)
}

// TestAuditPanicPropagates: a vetoing auditor turns an access into a panic
// at the access site — the mechanism the engine's access audit uses to
// catch out-of-protocol cross-shard touches.
func TestAuditPanicPropagates(t *testing.T) {
	s := NewSpace(2, 64)
	s.SetAudit(func(node int) {
		if node == 1 {
			panic("forbidden node")
		}
	})
	_ = s.AllocLine(0) // allowed
	defer func() {
		if recover() == nil {
			t.Fatal("audited access to node 1 did not panic")
		}
	}()
	_ = s.AllocLine(1)
}

// TestFreelistReuseHonoursAlignment: a size class is shared by every
// alignment that rounds to it, so a freed 8-aligned block must not come
// back for a 16-aligned request of the same rounded size.
func TestFreelistReuseHonoursAlignment(t *testing.T) {
	r := NewRegion(0, 4096)
	r.Alloc(16, 8)
	b := r.Alloc(16, 8)
	r.Free(b)
	if p := r.Alloc(16, 16); p.Offset()%16 != 0 {
		t.Fatalf("Alloc(16, 16) returned offset %d (the freed 8-aligned block)", p.Offset())
	}
	// The skipped block is still there for a request it satisfies.
	if p := r.Alloc(16, 8); p.Offset() != b.Offset() {
		t.Fatalf("Alloc(16, 8) = offset %d, want the freed block at %d", p.Offset(), b.Offset())
	}
}

// TestWordAddrAddressStable: an address from WordAddr names the same word
// for the life of the region, whatever is allocated, freed or first touched
// afterwards — internal/rt holds such addresses across other goroutines'
// allocations. A backing store that grows by moving fails this.
func TestWordAddrAddressStable(t *testing.T) {
	r := NewRegion(0, 1<<20)
	p := r.AllocLine()
	addr := r.WordAddr(p.Offset())
	*addr = 0xa110c
	far := r.WordAddr(1<<20 - 1) // a word on the last page, never allocated
	*far = 0xfa7
	for i := 0; i < 10_000; i++ {
		q := r.Alloc(1+i%24, 8)
		*r.WordAddr(q.Offset()) = uint64(i)
		if i%3 == 0 {
			r.Free(q)
		}
	}
	if r.WordAddr(p.Offset()) != addr || r.WordAddr(1<<20-1) != far {
		t.Fatal("WordAddr of the same offset changed after later allocations")
	}
	if *addr != 0xa110c || *far != 0xfa7 {
		t.Fatalf("words read %#x, %#x after later allocations; want 0xa110c, 0xfa7", *addr, *far)
	}
	*addr = 7
	if got := *r.WordAddr(p.Offset()); got != 7 {
		t.Fatalf("store through the old address not visible at the offset: got %d", got)
	}
}

// TestFirstTouchConcurrent is internal/rt's access pattern: goroutines
// resolve words nobody has touched yet, on one page and on neighbouring
// pages, at the same moment and store through what they get. Every
// goroutine must land on the same page and no store may be lost to a page
// that lost the race. Run under -race (CI does, at -cpu 1,4).
func TestFirstTouchConcurrent(t *testing.T) {
	const workers, rounds = 8, 64
	for round := 0; round < rounds; round++ {
		r := NewRegion(0, 4*pageWords)
		start := make(chan struct{})
		var wg sync.WaitGroup
		shared := make([]*uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// One word each on page 1, then the same word of page 2 from
				// everyone, then a word on a page chosen by parity.
				*r.WordAddr(uint64(pageWords + w)) = uint64(w + 1)
				shared[w] = r.WordAddr(2 * pageWords)
				atomic.AddUint64(shared[w], 1)
				*r.WordAddr(uint64((w%2)*3*pageWords + 100 + w)) = uint64(w + 1)
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 0; w < workers; w++ {
			if got := *r.WordAddr(uint64(pageWords + w)); got != uint64(w+1) {
				t.Fatalf("round %d: store by goroutine %d on the raced page lost: word reads %d", round, w, got)
			}
			if got := *r.WordAddr(uint64((w%2)*3*pageWords + 100 + w)); got != uint64(w+1) {
				t.Fatalf("round %d: store by goroutine %d on a neighbouring page lost: word reads %d", round, w, got)
			}
			if shared[w] != shared[0] {
				t.Fatalf("round %d: goroutines resolved one word to different pages", round)
			}
		}
		if got := *shared[0]; got != workers {
			t.Fatalf("round %d: %d of %d atomic adds survived first touch", round, got, workers)
		}
	}
}

func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	f()
}

// TestCapacityIsExactBelowPageGranularity: the capacity is what was asked
// for, not what the page table rounds to. Out-of-range and exhaustion fire
// at the same offsets with the same messages for capacities smaller than a
// page and capacities that are not a page multiple.
func TestCapacityIsExactBelowPageGranularity(t *testing.T) {
	for _, words := range []int{16, 100, pageWords + 24} {
		r := NewRegion(3, words)
		if r.Size() != words {
			t.Fatalf("Size() = %d, want %d", r.Size(), words)
		}
		if got := *r.WordAddr(uint64(words - 1)); got != 0 {
			t.Fatalf("last in-range word of a fresh region reads %d", got)
		}
		mustPanicWith(t, fmt.Sprintf("mem: node 3 offset %#x out of range (region %d words)", words, words),
			func() { r.WordAddr(uint64(words)) })
		lines := words/WordsPerCacheLine - 1 // line 0 is reserved
		for i := 0; i < lines; i++ {
			r.AllocLine()
		}
		mustPanicWith(t, fmt.Sprintf("mem: node 3 region exhausted (want 8 words at %#x, cap %d)",
			(lines+1)*WordsPerCacheLine, words),
			func() { r.AllocLine() })
	}
}

// TestUntouchedWordsReadZero: every in-range word of a fresh region reads
// zero, allocated or not, resident or not.
func TestUntouchedWordsReadZero(t *testing.T) {
	r := NewRegion(0, 3*pageWords)
	for _, off := range []uint64{0, 1, 8, pageWords - 1, pageWords, 2*pageWords + 17, 3*pageWords - 1} {
		if got := *r.WordAddr(off); got != 0 {
			t.Fatalf("never-written word %#x reads %d", off, got)
		}
	}
}

// TestReusedBlockZeroedAcrossPages: a block that straddles a page boundary
// is backed by two pages; reuse must zero the part on each, whether the
// first use touched that page or not.
func TestReusedBlockZeroedAcrossPages(t *testing.T) {
	for _, dirtySecondPage := range []bool{true, false} {
		r := NewRegion(0, 4*pageWords)
		r.Alloc(pageWords-3*WordsPerCacheLine, 8) // next block starts 2 lines short of page 1
		const size = 4 * WordsPerCacheLine
		p := r.Alloc(size, 8)
		if first, last := p.Offset()>>pageShift, (p.Offset()+size-1)>>pageShift; first == last {
			t.Fatalf("block [%#x, %#x) does not cross a page boundary", p.Offset(), p.Offset()+size)
		}
		n := uint64(size)
		if !dirtySecondPage {
			n = size / 2
		}
		for w := uint64(0); w < n; w++ {
			*r.WordAddr(p.Offset() + w) = ^uint64(0)
		}
		r.Free(p)
		q := r.Alloc(size, 8)
		if q.Offset() != p.Offset() {
			t.Fatalf("freed block not reused: got %#x want %#x", q.Offset(), p.Offset())
		}
		for w := uint64(0); w < size; w++ {
			if got := *r.WordAddr(q.Offset() + w); got != 0 {
				t.Fatalf("reused block word %d (offset %#x) reads %#x", w, q.Offset()+w, got)
			}
		}
	}
}

// TestFootprintIsWhatIsTouched: a 16-node cluster provisioned with 1 Mi
// words per node and holding a lock table's worth of lines allocates well
// under 1 MiB of host memory. The capacity alone is 128 MiB.
func TestFootprintIsWhatIsTouched(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSpace(16, 1<<20)
	for i := 0; i < 1024; i++ {
		p := s.AllocLine(i % 16)
		*s.WordAddr(p) = 1
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewSpace(16, 1<<20) + 1024 lines allocated %d bytes, want < 1 MiB", got)
	}
	runtime.KeepAlive(s)
}
