package locks

import (
	"fmt"
	"sync"

	"alock/internal/api"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// BakeryProvider implements Lamport's Bakery algorithm over RDMA, the
// second related-work baseline of Section 7 ("Lamport's Bakery algorithm
// also demonstrates the same undesirable behavior for remote threads"):
// only reads and writes — so it works despite Table 1's missing RMW
// atomicity — but it costs O(n) remote operations per acquisition plus
// remote spinning.
//
// Per lock, the bakery needs choosing[n] and number[n] words on the lock's
// home node.
type BakeryProvider struct {
	nThreads int

	mu    sync.Mutex
	state map[ptr.Ptr]bakeryState
}

type bakeryState struct {
	choosing ptr.Ptr
	number   ptr.Ptr
}

// NewBakeryProvider creates a provider for nThreads total threads.
func NewBakeryProvider(nThreads int) *BakeryProvider {
	if nThreads < 1 {
		panic("locks: bakery lock needs at least one thread")
	}
	return &BakeryProvider{nThreads: nThreads, state: make(map[ptr.Ptr]bakeryState)}
}

// Name implements Provider.
func (p *BakeryProvider) Name() string { return "bakery" }

// Lines implements Footprint: the choosing and number arrays, one word per
// thread each, line-aligned.
func (p *BakeryProvider) Lines() (perThread, perLock int) { return 0, 2 * threadLines(p.nThreads) }

// Prepare allocates each lock's arrays on the lock's home node.
func (p *BakeryProvider) Prepare(space *mem.Space, locks []ptr.Ptr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range locks {
		if _, ok := p.state[l]; ok {
			continue
		}
		node := l.NodeID()
		p.state[l] = bakeryState{
			choosing: space.Alloc(node, p.nThreads, mem.WordsPerCacheLine),
			number:   space.Alloc(node, p.nThreads, mem.WordsPerCacheLine),
		}
	}
}

// NewHandle implements Provider.
func (p *BakeryProvider) NewHandle(ctx api.Ctx) api.Handle {
	if ctx.ThreadID() >= p.nThreads {
		panic(fmt.Sprintf("locks: thread %d >= bakery capacity %d", ctx.ThreadID(), p.nThreads))
	}
	return &bakeryHandle{p: p, ctx: ctx}
}

func (p *BakeryProvider) lookup(l ptr.Ptr) bakeryState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[l]
	if !ok {
		panic(fmt.Sprintf("locks: bakery lock %v was not Prepared", l))
	}
	return st
}

type bakeryHandle struct {
	p   *BakeryProvider
	ctx api.Ctx
}

var _ api.Handle = (*bakeryHandle)(nil)

// AcquireTimed has no timed path and no shared mode: it blocks through any
// deadline and always acquires exclusively.
func (h *bakeryHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, _ int64) (api.AcqState, bool) {
	st := h.p.lookup(l)
	ctx := h.ctx
	me := uint64(ctx.ThreadID())
	n := h.p.nThreads

	// Doorway: pick a ticket one greater than every visible ticket.
	ctx.RWrite(st.choosing.Add(me), 1)
	var max uint64
	for k := 0; k < n; k++ {
		if v := ctx.RRead(st.number.Add(uint64(k))); v > max {
			max = v
		}
	}
	myTicket := max + 1
	ctx.RWrite(st.number.Add(me), myTicket)
	ctx.RWrite(st.choosing.Add(me), 0)

	// Wait for every thread with a smaller (ticket, id) pair.
	for k := 0; k < n; k++ {
		if uint64(k) == me {
			continue
		}
		for ctx.RRead(st.choosing.Add(uint64(k))) == 1 {
		}
		for {
			tk := ctx.RRead(st.number.Add(uint64(k)))
			if tk == 0 || tk > myTicket || (tk == myTicket && uint64(k) > me) {
				break
			}
		}
	}
	ctx.Fence()
	return api.AcqState{}, true
}

func (h *bakeryHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, _ api.AcqState) {
	st := h.p.lookup(l)
	h.ctx.Fence()
	h.ctx.RWrite(st.number.Add(uint64(h.ctx.ThreadID())), 0)
}
