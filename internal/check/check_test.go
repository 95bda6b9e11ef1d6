package check

import (
	"errors"
	"strings"
	"testing"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/locks"
	"alock/internal/ptr"
)

// The three mutations are Ctx interceptors: the shipping code runs
// unmodified and sees a broken memory.

// noPetersonWait: a read of either tail word returns Null, so a cohort
// leader never waits for the other cohort.
func noPetersonWait(o op, _, ret, next uint64) (uint64, uint64) {
	if (o.kind == opRead || o.kind == opRRead) && (o.addr == core.TailPtr(lockAddr, api.CohortLocal) ||
		o.addr == core.TailPtr(lockAddr, api.CohortRemote)) {
		ret = ptr.Null.Word()
	}
	return ret, next
}

// noVictimWrite: a write to the victim word is dropped.
func noVictimWrite(o op, cur, ret, next uint64) (uint64, uint64) {
	if (o.kind == opWrite || o.kind == opRWrite) && o.addr == core.VictimPtr(lockAddr) {
		next = cur
	}
	return ret, next
}

// noBudgetReacquire: a local read of a descriptor's budget word (word 0 of
// a line other than the lock's) that would return 0 returns 1, so a cohort
// passes the lock internally forever.
func noBudgetReacquire(o op, _, ret, next uint64) (uint64, uint64) {
	if o.kind == opRead && o.addr.Offset()%lineWords == 0 && o.addr != lockAddr && ret == 0 {
		ret = 1
	}
	return ret, next
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return r
}

func TestCorrectTwoProcs(t *testing.T) {
	for _, b := range []int{1, 2, 3} {
		r := mustRun(t, Config{Procs: 2, Budget: b})
		if !r.OK() {
			t.Errorf("procs=2 budget=%d: %v (%s %s)", b, r, r.MutexWitness, r.DeadlockWitness)
		}
		if r.States < 50 {
			t.Errorf("suspiciously small state space: %v", r)
		}
	}
}

func TestCorrectThreeProcs(t *testing.T) {
	for _, b := range []int{1, 2} {
		r := mustRun(t, Config{Procs: 3, Budget: b})
		if !r.OK() {
			t.Errorf("procs=3 budget=%d: %v (%s %s)", b, r, r.MutexWitness, r.DeadlockWitness)
		}
	}
}

func TestCorrectFourProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := mustRun(t, Config{Procs: 4, Budget: 1})
	if !r.OK() {
		t.Errorf("procs=4 budget=1: %v (%s %s)", r, r.MutexWitness, r.DeadlockWitness)
	}
	t.Logf("procs=4 budget=1: %v", r)
}

// TestNoPetersonWaitViolatesMutex validates the checker's mutual-exclusion
// detection: removing Peterson's synchronization between cohort leaders
// must produce two processes in the critical section.
func TestNoPetersonWaitViolatesMutex(t *testing.T) {
	r := mustRun(t, Config{Procs: 2, Budget: 1, mutate: noPetersonWait})
	if !r.MutexViolated {
		t.Fatalf("mutilated algorithm passed mutual exclusion: %v", r)
	}
	if !strings.Contains(r.MutexWitness, "pc=cs") {
		t.Errorf("witness should show two procs at cs: %s", r.MutexWitness)
	}
}

// TestNoVictimWriteViolatesMutex: skipping the victim write is the classic
// Peterson bug — an arriving cohort leader no longer publishes itself, so
// it can pass gwait while the opposite leader is already in the critical
// section (e.g. leader A exits gwait when cohort[B]==0, then leader B
// enqueues and exits gwait because victim never names B).
func TestNoVictimWriteViolatesMutex(t *testing.T) {
	r := mustRun(t, Config{Procs: 2, Budget: 1, mutate: noVictimWrite})
	if !r.MutexViolated {
		t.Fatalf("victim-write mutation not detected: %v", r)
	}
}

// TestNoBudgetStarves validates the weak-fairness starvation detection:
// with the budget check removed, a cohort with a steady supply of waiters
// passes the lock internally forever and the opposite cohort's leader
// stays blocked — along a cycle that violates no weak-fairness obligation
// (the blocked leader is never enabled). This is exactly the unfairness
// Section 5's budget exists to prevent.
func TestNoBudgetStarves(t *testing.T) {
	r := mustRun(t, Config{Procs: 3, Budget: 1, mutate: noBudgetReacquire})
	if r.MutexViolated {
		t.Fatalf("unexpected mutex violation: %s", r.MutexWitness)
	}
	if r.StarvedProc == 0 {
		t.Fatal("budget removal not detected as starvation")
	}
}

func TestCorrectHasNoFairStarvationCycle(t *testing.T) {
	// Redundant with TestCorrectTwoProcs but spelled out: the budget +
	// victim machinery is exactly what removes weakly-fair starvation.
	r := mustRun(t, Config{Procs: 2, Budget: 1})
	if r.StarvedProc != 0 {
		t.Fatalf("correct algorithm reported starvation: %v (%s)", r, r.DeadlockWitness)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Procs: 1, Budget: 1}); err == nil {
		t.Error("Procs=1 accepted")
	}
	if _, err := Run(Config{Procs: MaxProcs + 1, Budget: 1}); err == nil {
		t.Error("Procs too large accepted")
	}
	if _, err := Run(Config{Procs: 2, Budget: 0}); err == nil {
		t.Error("Budget=0 accepted")
	}
}

func TestStateSpaceCap(t *testing.T) {
	_, err := Run(Config{Procs: 3, Budget: 2, MaxStates: 10})
	if err == nil || !strings.Contains(err.Error(), "state space") {
		t.Fatalf("expected state-space cap error, got %v", err)
	}
}

func TestBothInitialVictims(t *testing.T) {
	// The TLA+ spec starts with victim ∈ {1,2}; both must be explored.
	// With 2 procs and budget 1, flipping the initial victim changes early
	// schedules; the checker must remain OK for the union.
	r := mustRun(t, Config{Procs: 2, Budget: 1})
	if !r.OK() {
		t.Fatalf("union of initial victims fails: %v", r)
	}
}

// TestMCSPaperProtocol runs the paper's MCS competitor through the same
// driver: its bare RRead spin loops exercise the poll-stutter rule without
// Pause.
func TestMCSPaperProtocol(t *testing.T) {
	mcs := func(ctx api.Ctx, _ int) api.Handle { return locks.NewMCSHandle(ctx) }
	for _, procs := range []int{2, 3} {
		r := mustRun(t, Config{Procs: procs, Budget: 1, newHandle: mcs})
		if !r.OK() {
			t.Errorf("mcs procs=%d: %v (%s %s)", procs, r, r.MutexWitness, r.DeadlockWitness)
		}
		t.Logf("mcs procs=%d: %v", procs, r)
	}
}

// turnHandle is strict alternation between processes 0 and 1 on the lock's
// first word, which names whose turn it is. wait picks how the waiting is
// written: SpinWhile, a Read+Pause loop, or a bare RRead loop.
type turnHandle struct {
	ctx  api.Ctx
	wait int
}

func (h *turnHandle) AcquireTimed(l ptr.Ptr, _ api.Mode, _ int64) (api.AcqState, bool) {
	me := uint64(h.ctx.ThreadID())
	switch h.wait {
	case 0:
		h.ctx.SpinWhile(l, 1-me, 0)
	case 1:
		for i := 0; h.ctx.Read(l) != me; i++ {
			h.ctx.Pause(i)
		}
	default:
		for h.ctx.RRead(l) != me {
		}
	}
	return api.AcqState{}, true
}

func (h *turnHandle) ReleaseAcq(l ptr.Ptr, _ api.Mode, _ api.AcqState) {
	h.ctx.Write(l, 1-uint64(h.ctx.ThreadID()))
}

// TestPollStutter: a wait written as SpinWhile, as a Read+Pause loop and as
// a bare RRead loop gives the same graph. Without the poll-stutter rule
// each loop form grows a new state per poll and never finishes; with polls
// that never block, the loops add self-loop transitions.
func TestPollStutter(t *testing.T) {
	var got [3]string
	for wait := range got {
		turn := func(ctx api.Ctx, _ int) api.Handle { return &turnHandle{ctx: ctx, wait: wait} }
		r, err := Run(Config{Procs: 2, Budget: 1, MaxStates: 10_000, newHandle: turn})
		if err != nil {
			t.Errorf("wait form %d: %v", wait, err)
			continue
		}
		if !r.OK() {
			t.Errorf("wait form %d: %v (%s %s)", wait, r, r.MutexWitness, r.DeadlockWitness)
		}
		got[wait] = r.String()
		t.Logf("wait form %d: %v", wait, r)
	}
	if got[1] != got[0] || got[2] != got[0] {
		t.Errorf("graphs differ across wait forms (SpinWhile, Read+Pause, RRead):\n%s", strings.Join(got[:], "\n"))
	}
}

// TestWitnessNamesSchedule: a witness is the schedule from the initial
// memory — process, op, word and value — then each process's position.
func TestWitnessNamesSchedule(t *testing.T) {
	r := mustRun(t, Config{Procs: 2, Budget: 1, mutate: noVictimWrite})
	w := r.MutexWitness
	for _, want := range []string{"initial ", "; p1 begin", "; p2 RCAS n0+0x8 0→n1+0x10 = 0", "⇒ p1{pc=cs} p2{pc=cs}"} {
		if !strings.Contains(w, want) {
			t.Errorf("witness lacks %q: %s", want, w)
		}
	}
}

// allocHandle allocates a descriptor per acquisition, so its Go state at
// the start of an operation is not a fresh handle's.
type allocHandle struct{ ctx api.Ctx }

func (h allocHandle) AcquireTimed(ptr.Ptr, api.Mode, int64) (api.AcqState, bool) {
	return api.AcqState{Desc: h.ctx.Alloc(8, 8)}, true
}

func (h allocHandle) ReleaseAcq(ptr.Ptr, api.Mode, api.AcqState) {}

// nowHandle reads the clock, which belongs to the timed protocol.
type nowHandle struct{ ctx api.Ctx }

func (h nowHandle) AcquireTimed(ptr.Ptr, api.Mode, int64) (api.AcqState, bool) {
	return api.AcqState{Word: uint64(h.ctx.Now())}, true
}

func (h nowHandle) ReleaseAcq(ptr.Ptr, api.Mode, api.AcqState) {}

// TestOutOfScopeHandles: an Alloc after NewHandle is an error, and the
// timed protocol's calls panic with a clear message.
func TestOutOfScopeHandles(t *testing.T) {
	allocs := func(ctx api.Ctx, _ int) api.Handle { return allocHandle{ctx} }
	if _, err := Run(Config{Procs: 2, Budget: 1, newHandle: allocs}); !errors.Is(err, errAlloc) {
		t.Errorf("Alloc after NewHandle: got %v, want %v", err, errAlloc)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Now is out of scope") {
			t.Errorf("Now: got panic %v", r)
		}
	}()
	Run(Config{Procs: 2, Budget: 1, newHandle: func(ctx api.Ctx, _ int) api.Handle { return nowHandle{ctx} }})
}

func BenchmarkCheck2Procs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Procs: 2, Budget: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheck3Procs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Procs: 3, Budget: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
