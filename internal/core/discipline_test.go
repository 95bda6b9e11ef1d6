package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/sim"
)

// recordingCtx wraps a real Ctx and records, per word, which operation
// kinds touched it. It is the instrument for verifying the ALock's central
// discipline (Section 5): no word is ever RMW'd by both access classes,
// and the victim word is never RMW'd at all.
type recordingCtx struct {
	api.Ctx
	ops map[ptr.Ptr]map[string]bool
}

func newRecordingCtx(inner api.Ctx) *recordingCtx {
	return &recordingCtx{Ctx: inner, ops: make(map[ptr.Ptr]map[string]bool)}
}

func (r *recordingCtx) note(p ptr.Ptr, kind string) {
	m := r.ops[p]
	if m == nil {
		m = make(map[string]bool)
		r.ops[p] = m
	}
	m[kind] = true
}

func (r *recordingCtx) Read(p ptr.Ptr) uint64 {
	r.note(p, "read")
	return r.Ctx.Read(p)
}

// SpinWhile records the local read every one of its polls is; without the
// override the embedded Ctx would run the polls unrecorded.
func (r *recordingCtx) SpinWhile(p ptr.Ptr, v uint64, deadlineNS int64) uint64 {
	r.note(p, "read")
	return r.Ctx.SpinWhile(p, v, deadlineNS)
}

func (r *recordingCtx) Write(p ptr.Ptr, v uint64) {
	r.note(p, "write")
	r.Ctx.Write(p, v)
}

func (r *recordingCtx) CAS(p ptr.Ptr, old, new uint64) uint64 {
	r.note(p, "cas")
	return r.Ctx.CAS(p, old, new)
}

func (r *recordingCtx) RRead(p ptr.Ptr) uint64 {
	r.note(p, "rread")
	return r.Ctx.RRead(p)
}

func (r *recordingCtx) RWrite(p ptr.Ptr, v uint64) {
	r.note(p, "rwrite")
	r.Ctx.RWrite(p, v)
}

func (r *recordingCtx) RCAS(p ptr.Ptr, old, new uint64) uint64 {
	r.note(p, "rcas")
	return r.Ctx.RCAS(p, old, new)
}

// TestOperationDisciplineInvariant runs a contended mixed-cohort workload
// with every thread's operations recorded, then checks the asymmetry
// discipline that makes ALock correct under Table 1:
//
//  1. the local tail word is RMW'd only with local CAS;
//  2. the remote tail word is RMW'd only with remote rCAS;
//  3. the victim word is read and written but NEVER RMW'd by anyone;
//  4. local threads never touch lock words with remote verbs, and remote
//     threads never touch them with shared-memory ops.
func TestOperationDisciplineInvariant(t *testing.T) {
	e := sim.New(3, 1<<18, model.CX3(), 5)
	nLocks := 4
	lockPtrs := make([]ptr.Ptr, nLocks)
	for i := range lockPtrs {
		lockPtrs[i] = e.Space().AllocLine(i % 3)
	}

	recs := make([]*recordingCtx, 0, 9)
	for n := 0; n < 3; n++ {
		node := n
		for k := 0; k < 3; k++ {
			e.Spawn(node, func(inner api.Ctx) {
				rec := newRecordingCtx(inner)
				recs = append(recs, rec)
				h := api.NewBlocking(core.NewHandle(rec, core.Config{LocalBudget: 2, RemoteBudget: 3}))
				rng := rand.New(rand.NewSource(int64(inner.ThreadID())))
				for i := 0; i < 60; i++ {
					l := lockPtrs[rng.Intn(nLocks)]
					h.Lock(l)
					inner.Work(50 * time.Nanosecond)
					h.Unlock(l)
				}
			})
		}
	}
	e.Run(1 << 62)

	type wordClass struct {
		name  string
		local bool // word may only be RMW'd locally
	}
	classify := func(p ptr.Ptr) (wordClass, bool) {
		for _, l := range lockPtrs {
			switch p {
			case core.TailPtr(l, api.CohortLocal):
				return wordClass{"tail_l", true}, true
			case core.TailPtr(l, api.CohortRemote):
				return wordClass{"tail_r", false}, true
			case core.VictimPtr(l):
				return wordClass{"victim", false}, true
			}
		}
		return wordClass{}, false
	}

	for _, rec := range recs {
		for p, kinds := range rec.ops {
			wc, isLockWord := classify(p)
			if !isLockWord {
				continue
			}
			switch wc.name {
			case "victim":
				if kinds["cas"] || kinds["rcas"] {
					t.Errorf("victim word %v was RMW'd: %v", p, keys(kinds))
				}
			case "tail_l":
				if kinds["rcas"] {
					t.Errorf("tail_l %v RMW'd remotely: %v", p, keys(kinds))
				}
			case "tail_r":
				if kinds["cas"] {
					t.Errorf("tail_r %v RMW'd locally: %v", p, keys(kinds))
				}
			}
		}
	}

	// Stronger cross-thread check: gather the union of RMW kinds per word
	// across ALL threads; no word may see both classes.
	union := map[ptr.Ptr]map[string]bool{}
	for _, rec := range recs {
		for p, kinds := range rec.ops {
			m := union[p]
			if m == nil {
				m = map[string]bool{}
				union[p] = m
			}
			for k := range kinds {
				m[k] = true
			}
		}
	}
	for p, kinds := range union {
		if kinds["cas"] && kinds["rcas"] {
			t.Errorf("word %v RMW'd by BOTH classes — the Table 1 hazard: %v", p, keys(kinds))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDescriptorAccessPattern verifies the MCS property that makes ALock
// RDMA-friendly: a thread spins on its own descriptor with local reads
// only (no remote verbs against its own budget word).
func TestDescriptorAccessPattern(t *testing.T) {
	e := sim.New(2, 1<<18, model.CX3(), 6)
	l := e.Space().AllocLine(0)
	var remoteRec *recordingCtx
	var remoteDesc ptr.Ptr
	// Two remote threads on node 1 contend so that one gets PASSED the
	// lock (the passed thread spins on its own descriptor).
	for k := 0; k < 2; k++ {
		slot := k
		e.Spawn(1, func(inner api.Ctx) {
			rec := newRecordingCtx(inner)
			ch := core.NewHandle(rec, core.DefaultConfig())
			h := api.NewBlocking(ch)
			if slot == 1 {
				remoteRec = rec
				remoteDesc = ch.Descriptor(api.CohortRemote)
			}
			for i := 0; i < 30; i++ {
				h.Lock(l)
				inner.Work(200 * time.Nanosecond)
				h.Unlock(l)
			}
		})
	}
	e.Run(1 << 62)

	budgetWord := remoteDesc // word 0 of the descriptor is the budget
	kinds := remoteRec.ops[budgetWord]
	if kinds == nil {
		t.Fatal("remote thread never touched its own budget word?")
	}
	if kinds["rread"] || kinds["rcas"] {
		t.Errorf("thread used remote verbs on its OWN descriptor (remote spinning!): %v",
			keys(kinds))
	}
	if !kinds["read"] {
		t.Error("expected local spin reads on own descriptor")
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
