package locks

import (
	"alock/internal/api"
	"alock/internal/ptr"
)

// NaiveMixedProvider is a deliberately broken lock that exists to
// demonstrate Table 1 of the paper: it is a plain test-and-set spinlock in
// which threads on the lock's home node use local CAS while threads
// elsewhere use RDMA rCAS — i.e., it mixes RMW classes on a single word,
// exactly what the paper proves you must not do.
//
// Under an engine that models remote-RMW tearing (the physical reality of
// §1/§4: "from the perspective of local memory, a remote RMW is nothing
// more than a read followed by a write"), this lock admits two owners: a
// local CAS can take the lock inside the window between the remote CAS's
// read and write halves, after which the remote write blindly "acquires"
// an already-held lock.
//
// It must never be used for anything except the Table 1 experiments; its
// existence is the motivation for ALock.
type NaiveMixedProvider struct{}

// Name implements Provider.
func (NaiveMixedProvider) Name() string { return "naive-mixed" }

// NewHandle implements Provider.
func (NaiveMixedProvider) NewHandle(ctx api.Ctx) api.Handle {
	return &naiveHandle{ctx: ctx, tag: uint64(ctx.ThreadID()) + 1}
}

type naiveHandle struct {
	ctx api.Ctx
	tag uint64
}

var _ api.Handle = (*naiveHandle)(nil)

func (h *naiveHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, _ int64) (api.AcqState, bool) {
	if api.Classify(h.ctx.NodeID(), l) == api.CohortLocal {
		i := 0
		for h.ctx.CAS(l, 0, h.tag) != 0 {
			h.ctx.Pause(i)
			i++
		}
	} else {
		for h.ctx.RCAS(l, 0, h.tag) != 0 {
		}
	}
	h.ctx.Fence()
	return api.AcqState{}, true
}

func (h *naiveHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, _ api.AcqState) {
	h.ctx.Fence()
	if api.Classify(h.ctx.NodeID(), l) == api.CohortLocal {
		h.ctx.Write(l, 0)
	} else {
		h.ctx.RWrite(l, 0)
	}
}
