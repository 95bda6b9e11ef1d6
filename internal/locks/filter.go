package locks

import (
	"fmt"
	"sync"

	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// FilterProvider implements the filter lock — Peterson's n-thread
// generalization — over RDMA, as the related-work baseline of Section 7:
// "this would require both remote spinning and a number of remote
// operations proportional to the number of threads that might contend for
// the lock, even if a thread executes in isolation." It exists to
// demonstrate that claim, not to win anything.
//
// Per lock, the filter needs level[n] and victim[n] words, allocated on the
// lock's home node at Prepare time. All accesses are RDMA verbs.
type FilterProvider struct {
	nThreads int

	mu    sync.Mutex
	state map[ptr.Ptr]filterState
}

type filterState struct {
	level  ptr.Ptr // n contiguous words
	victim ptr.Ptr // n contiguous words (index 0 unused)
}

// NewFilterProvider creates a provider for a cluster with nThreads total
// threads (thread IDs must be dense in [0, nThreads)).
func NewFilterProvider(nThreads int) *FilterProvider {
	if nThreads < 1 {
		panic("locks: filter lock needs at least one thread")
	}
	return &FilterProvider{nThreads: nThreads, state: make(map[ptr.Ptr]filterState)}
}

// Name implements Provider.
func (p *FilterProvider) Name() string { return "filter" }

// Prepare allocates each lock's level/victim arrays on the lock's home node.
func (p *FilterProvider) Prepare(space *mem.Space, locks []ptr.Ptr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range locks {
		if _, ok := p.state[l]; ok {
			continue
		}
		node := l.NodeID()
		p.state[l] = filterState{
			level:  space.Alloc(node, p.nThreads, mem.WordsPerCacheLine),
			victim: space.Alloc(node, p.nThreads, mem.WordsPerCacheLine),
		}
	}
}

// NewHandle implements Provider.
func (p *FilterProvider) NewHandle(ctx api.Ctx) api.Handle {
	if ctx.ThreadID() >= p.nThreads {
		panic(fmt.Sprintf("locks: thread %d >= filter capacity %d", ctx.ThreadID(), p.nThreads))
	}
	return &filterHandle{p: p, ctx: ctx}
}

func (p *FilterProvider) lookup(l ptr.Ptr) filterState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[l]
	if !ok {
		panic(fmt.Sprintf("locks: filter lock %v was not Prepared", l))
	}
	return st
}

type filterHandle struct {
	p   *FilterProvider
	ctx api.Ctx
}

var _ api.Handle = (*filterHandle)(nil)

// AcquireTimed has no timed path and no shared mode: it blocks through any
// deadline and always acquires exclusively.
func (h *filterHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, _ int64) (api.AcqState, bool) {
	st := h.p.lookup(l)
	ctx := h.ctx
	me := uint64(ctx.ThreadID())
	n := h.p.nThreads

	for lvl := 1; lvl < n; lvl++ {
		ctx.RWrite(st.level.Add(me), uint64(lvl))
		ctx.RWrite(st.victim.Add(uint64(lvl)), me)
		// Wait while some other thread is at an equal-or-higher level and
		// we are the victim of this level. Every re-check is a sweep of
		// remote reads — the O(n) remote spinning of Section 7.
		for {
			conflict := false
			for k := 0; k < n; k++ {
				if uint64(k) == me {
					continue
				}
				if ctx.RRead(st.level.Add(uint64(k))) >= uint64(lvl) {
					conflict = true
					break
				}
			}
			if !conflict || ctx.RRead(st.victim.Add(uint64(lvl))) != me {
				break
			}
		}
	}
	ctx.Fence()
	return api.AcqState{}, true
}

func (h *filterHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, _ api.AcqState) {
	st := h.p.lookup(l)
	h.ctx.Fence()
	h.ctx.RWrite(st.level.Add(uint64(h.ctx.ThreadID())), 0)
}
