// Package locks implements the competitor lock algorithms of the paper's
// evaluation (Section 6) plus the related-work baselines of Section 7 and
// the ablations called out in DESIGN.md.
//
// The two competitors — the RDMA spinlock and the RDMA MCS queue lock —
// deliberately use RDMA operations for ALL of their accesses, regardless of
// locality: "while ALock only performs RDMA operations on remote memory,
// the competitors use the local RDMA loopback card to perform RDMA
// operations on local memory" (Section 6). That is both the historically
// accurate design (it is the only way to keep RMWs on the lock word
// mutually atomic without ALock's cohort discipline, Table 1) and the
// source of the loopback congestion ALock eliminates.
package locks

import (
	"alock/internal/api"
	"alock/internal/ptr"
)

// SpinLockWords is the allocation size of a spinlock: one cache line
// (only word 0 is used; the padding prevents false sharing, Section 6).
const SpinLockWords = 8

// SpinHandle is the paper's first competitor: a lock acquired by repeating
// RDMA rCAS until it succeeds (Section 6). Every operation is a verb, so a
// contended spinlock remote-spins straight into the RNIC — the congestion
// shown in Figures 1 and 5.
type SpinHandle struct {
	ctx api.Ctx
	tag uint64 // this thread's non-zero owner tag
}

var _ api.Handle = (*SpinHandle)(nil)

// NewSpinHandle returns a per-thread spinlock handle.
func NewSpinHandle(ctx api.Ctx) *SpinHandle {
	return &SpinHandle{ctx: ctx, tag: uint64(ctx.ThreadID()) + 1}
}

// AcquireTimed repeats rCAS(word, 0, tag) until it succeeds or the deadline
// passes (0 = block). There is no back-off: the paper's spinlock "simply
// repeats RDMA rCAS until it succeeds", with each retry paced only by the
// verb's own round-trip time. The poll is bounded by engine time, and a
// failed rCAS holds nothing, so giving up needs no retraction — the
// single-word lock's trivial timeout path. Shared degrades to Exclusive.
func (h *SpinHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, deadlineNS int64) (api.AcqState, bool) {
	for h.ctx.RCAS(l, 0, h.tag) != 0 {
		if deadlineNS > 0 && h.ctx.Now() >= deadlineNS {
			return api.AcqState{}, false
		}
	}
	h.ctx.Fence()
	return api.AcqState{}, true
}

// ReleaseAcq releases with a single rWrite of zero.
func (h *SpinHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, _ api.AcqState) {
	h.ctx.Fence()
	h.ctx.RWrite(l, 0)
}
