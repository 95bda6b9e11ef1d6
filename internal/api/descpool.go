// descpool.go: the per-thread queue-descriptor pool shared by the queued
// locks (one per MCS and rw-queue handle, one per cohort of an ALock
// handle). Descriptors are allocated per acquisition (so one thread can
// hold several locks), recycled through a free list, and — under the timed
// protocol — parked on a zombie list when abandoned on deadline until the
// granter that patched the queue around them writes the skip mark into
// their spin word, at which point the owner may reuse them.
package api

import "alock/internal/ptr"

// DescPool manages one thread's descriptors for one queued lock algorithm.
// The exported fields are fixed at construction.
type DescPool struct {
	Ctx   Ctx
	Words int    // allocation size and alignment, in words
	Spin  uint64 // offset of the word the granter writes the skip mark to
	Skip  uint64 // the skip-mark value releasing a zombie to its owner
	free  []ptr.Ptr
	zombs []ptr.Ptr
}

// Sweep recycles zombies whose granter has marked them skipped. It runs on
// both acquire and release: sweeping only on acquire would let a thread
// that stops acquiring keep its skipped descriptors parked forever.
func (p *DescPool) Sweep() {
	if len(p.zombs) == 0 {
		return
	}
	kept := p.zombs[:0]
	for _, z := range p.zombs {
		// Our own descriptor on our own node: a shared-memory read is
		// atomic with the granter's skip mark in either class.
		if p.Ctx.Read(z.Add(p.Spin)) == p.Skip {
			p.free = append(p.free, z)
		} else {
			kept = append(kept, z)
		}
	}
	p.zombs = kept
}

// Get pops a free descriptor, first recycling zombies whose granter has
// marked them skipped, allocating fresh memory only when every descriptor
// is in use or still awaiting its skip mark.
func (p *DescPool) Get() ptr.Ptr {
	p.Sweep()
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free = p.free[:n-1]
		return d
	}
	return p.Ctx.Alloc(p.Words, p.Words)
}

// Push returns a descriptor to the free list without sweeping (Null is a
// no-op, for fast-path acquisitions that never took a descriptor).
func (p *DescPool) Push(d ptr.Ptr) {
	if d != ptr.Null {
		p.free = append(p.free, d)
	}
}

// Put is the release-side return: Push, then Sweep. A release is the last
// pool interaction a winding-down thread performs, so any descriptor whose
// skip mark has landed by then is recycled even if the thread never
// acquires again.
func (p *DescPool) Put(d ptr.Ptr) {
	p.Push(d)
	p.Sweep()
}

// Park puts an abandoned descriptor on the zombie list until its skip mark
// lands.
func (p *DescPool) Park(d ptr.Ptr) { p.zombs = append(p.zombs, d) }

// Zombies reports how many descriptors are still parked awaiting their
// skip mark (the drain-recycle assertions in locktest read it through the
// handles' Zombies methods).
func (p *DescPool) Zombies() int { return len(p.zombs) }
