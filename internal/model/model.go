// Package model holds the cost model for the simulated RDMA cluster.
//
// All latency parameters are in nanoseconds. The defaults (CX3) are
// calibrated to the paper's testbed — Mellanox ConnectX-3 RNICs on CloudLab
// machines — using published measurements: one-sided verb latency on the
// order of 1.5–2 µs (Kalia et al., ATC'16 [16]), shared-memory operations
// roughly two to three orders of magnitude faster (§1: "RDMA is still at
// least an order of magnitude slower than shared memory operations"),
// commodity RNIC message rates degrading past ~450 cached QP connections
// (Wang et al., ICNP'21 [31]), and loopback traffic draining PCIe bandwidth
// under load (§2, Figure 1).
//
// The model deliberately exposes every knob the experiments depend on so
// that its substitutions for real hardware (and the 16-node stand-in for
// the paper's 20-node cluster, harness.MaxClusterNodes) are auditable:
// reproducing a figure is a question of shape under this model, not of
// matching the authors' absolute numbers.
package model

import (
	"errors"
	"fmt"
)

// Params is the full set of cost-model parameters for one simulated cluster.
type Params struct {
	// --- Local (shared-memory) operation costs, in ns ---

	// LocalReadNS is the cost of an 8-byte shared-memory load.
	LocalReadNS int64
	// LocalWriteNS is the cost of an 8-byte shared-memory store.
	LocalWriteNS int64
	// LocalCASNS is the cost of a shared-memory compare-and-swap.
	LocalCASNS int64
	// FenceNS is the cost of an atomic thread fence (§5.2 requires fences
	// after locking and before unlocking).
	FenceNS int64

	// --- Spin-loop polling (event coarsening) ---

	// SpinPollMinNS is the delay of the first re-poll in a spin loop.
	SpinPollMinNS int64
	// SpinPollMaxNS caps the exponential poll back-off. Keeping this small
	// relative to verb latency preserves reactivity while bounding the
	// simulator's event count.
	SpinPollMaxNS int64

	// --- RDMA fabric ---

	// RemoteWireNS is the one-way wire + DMA latency between two distinct
	// nodes (a one-sided verb pays it twice: request and completion).
	RemoteWireNS int64
	// LoopbackWireNS is the one-way PCIe-only latency of the loopback path
	// a thread uses to reach RDMA memory on its own machine (§1, [36]).
	LoopbackWireNS int64

	// --- RNIC model ---

	// NICServiceNS is the RNIC occupancy per verb (TX or RX side). Its
	// inverse is the NIC's peak verb rate.
	NICServiceNS int64

	// Congestion is modeled as load-dependent service inflation, with two
	// regimes matching Section 2's analysis:
	//
	// Loopback verbs cross the host PCIe bus twice and compete with every
	// other DMA on the machine, so they degrade as soon as the NIC has any
	// meaningful backlog ("the loopback traffic drains the PCIe bandwidth,
	// causing accumulation in the RNIC's RX buffer"). LoopbackRXThreshold
	// is the backlog (in verbs) past which a loopback verb's service time
	// inflates by LoopbackAlpha per excess verb, capped at LoopbackCap.
	// This regime is what collapses the baselines in Figures 1, 5 and 6,
	// high contention included: with LoopbackCap 1 every Figure 1/4/5/6 row
	// moves and every headline ratio roughly halves.
	LoopbackRXThreshold int
	LoopbackAlpha       float64
	LoopbackCap         float64

	// Network verbs only suffer once the RX buffer genuinely overflows —
	// a much deeper backlog, reachable when many nodes converge on one
	// responder. Under CX3 no paper figure reaches it: RemoteCap 1 moves no
	// Figure 1/4/5/6 byte and no headline ratio, only Figure RW rows
	// (fail/abandoned-holder, svc/*).
	RemoteRXThreshold int
	RemoteAlpha       float64
	RemoteCap         float64

	// --- QP context caching (§2, [21][31]) ---

	// QPCCacheCap is the number of QP contexts the RNIC cache holds before
	// thrashing. Wang et al. [31] measure degradation past ~450. Under CX3
	// no figure reaches it (QPCCacheCap 1<<20 moves no figure byte); the
	// qp-thrashing sweep sets its own capacities.
	QPCCacheCap int
	// QPCMissPenaltyNS is the extra service time of a verb whose QP context
	// must be fetched from host memory over PCIe.
	QPCMissPenaltyNS int64

	// --- Failure injection (an extension beyond the paper; the fail/*
	// scenarios sweep it) ---

	// JitterProb is the per-verb probability of a transient fabric delay
	// spike (PFC pause, retransmission, firmware hiccup). Zero disables.
	JitterProb float64
	// JitterNS is the extra wire latency of a jittered verb.
	JitterNS int64

	// --- Remote RMW tearing (Table 1) ---

	// TornRCAS, when true, executes every remote CAS as a read followed by
	// a write separated by TornGapNS, which is how a remote RMW appears to
	// threads performing local accesses (§1, §4). Remote operations remain
	// atomic with each other (the responder NIC serializes them); only
	// cross-class atomicity is lost, exactly as in Table 1.
	TornRCAS bool
	// TornGapNS is the responder-side window between the read and write
	// halves of a torn remote CAS.
	TornGapNS int64
}

// CX3 returns the default parameters calibrated to the paper's ConnectX-3
// testbed. These are the parameters used by every experiment unless a
// figure explicitly overrides them.
func CX3() Params {
	return Params{
		LocalReadNS:         10,
		LocalWriteNS:        10,
		LocalCASNS:          45,
		FenceNS:             16,
		SpinPollMinNS:       12,
		SpinPollMaxNS:       420,
		RemoteWireNS:        780,
		LoopbackWireNS:      260,
		NICServiceNS:        130,
		LoopbackRXThreshold: 2,
		LoopbackAlpha:       0.25,
		LoopbackCap:         8.0,
		RemoteRXThreshold:   40,
		RemoteAlpha:         0.03,
		RemoteCap:           4.0,
		QPCCacheCap:         450,
		QPCMissPenaltyNS:    850,
		TornRCAS:            true,
		TornGapNS:           180,
	}
}

// Uniform returns a degenerate model in which every operation — local or
// remote — costs exactly ns nanoseconds and there is no congestion, QPC
// thrashing, or tearing. It exists for engine and algorithm unit tests
// whose assertions must not depend on the performance model.
func Uniform(ns int64) Params {
	return Params{
		LocalReadNS:         ns,
		LocalWriteNS:        ns,
		LocalCASNS:          ns,
		FenceNS:             ns,
		SpinPollMinNS:       ns,
		SpinPollMaxNS:       ns,
		RemoteWireNS:        ns,
		LoopbackWireNS:      ns,
		NICServiceNS:        ns,
		LoopbackRXThreshold: 1 << 30,
		LoopbackAlpha:       0,
		LoopbackCap:         1,
		RemoteRXThreshold:   1 << 30,
		RemoteAlpha:         0,
		RemoteCap:           1,
		QPCCacheCap:         1 << 20,
		QPCMissPenaltyNS:    0,
		TornRCAS:            false,
		TornGapNS:           0,
	}
}

// Validate checks internal consistency. Every experiment validates its
// model before running so a bad sweep fails fast rather than producing
// quietly meaningless curves.
func (p Params) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{p.LocalReadNS > 0, "LocalReadNS must be positive"},
		{p.LocalWriteNS > 0, "LocalWriteNS must be positive"},
		{p.LocalCASNS > 0, "LocalCASNS must be positive"},
		{p.FenceNS >= 0, "FenceNS must be non-negative"},
		{p.SpinPollMinNS > 0, "SpinPollMinNS must be positive"},
		{p.SpinPollMaxNS >= p.SpinPollMinNS, "SpinPollMaxNS must be >= SpinPollMinNS"},
		{p.RemoteWireNS > 0, "RemoteWireNS must be positive"},
		{p.LoopbackWireNS > 0, "LoopbackWireNS must be positive"},
		{p.NICServiceNS > 0, "NICServiceNS must be positive"},
		{p.LoopbackRXThreshold >= 0, "LoopbackRXThreshold must be non-negative"},
		{p.LoopbackAlpha >= 0, "LoopbackAlpha must be non-negative"},
		{p.LoopbackCap >= 1, "LoopbackCap must be >= 1"},
		{p.RemoteRXThreshold >= 0, "RemoteRXThreshold must be non-negative"},
		{p.RemoteAlpha >= 0, "RemoteAlpha must be non-negative"},
		{p.RemoteCap >= 1, "RemoteCap must be >= 1"},
		{p.QPCCacheCap > 0, "QPCCacheCap must be positive"},
		{p.QPCMissPenaltyNS >= 0, "QPCMissPenaltyNS must be non-negative"},
		{p.JitterProb >= 0 && p.JitterProb <= 1, "JitterProb must be in [0,1]"},
		{p.JitterProb == 0 || p.JitterNS > 0, "JitterNS must be positive when JitterProb is set"},
		{!p.TornRCAS || p.TornGapNS > 0, "TornGapNS must be positive when TornRCAS is set"},
	}
	var errs []error
	for _, c := range checks {
		if !c.ok {
			errs = append(errs, errors.New(c.msg))
		}
	}
	return errors.Join(errs...)
}

// MinOpNS is the smallest latency in which any memory operation can complete
// under the model: a local load, store or CAS costs its own latency, and every
// verb pays at least one wire, loopback or remote. An operation that issues a
// memory operation between two clock readings spans at least this much, which
// is what bounds how many such operations a thread can end in a window of
// virtual time.
func (p Params) MinOpNS() int64 {
	return min(p.LocalReadNS, p.LocalWriteNS, p.LocalCASNS, p.LoopbackWireNS, p.RemoteWireNS)
}

// String gives a compact one-line rendering for experiment logs.
func (p Params) String() string {
	return fmt.Sprintf(
		"model{local r/w/cas=%d/%d/%dns wire=%dns loop=%dns nic=%dns qpc=%d/%dns torn=%v}",
		p.LocalReadNS, p.LocalWriteNS, p.LocalCASNS,
		p.RemoteWireNS, p.LoopbackWireNS, p.NICServiceNS,
		p.QPCCacheCap, p.QPCMissPenaltyNS, p.TornRCAS)
}
