package api

import (
	"testing"
	"testing/quick"

	"alock/internal/ptr"
)

func TestCohortOther(t *testing.T) {
	if CohortLocal.Other() != CohortRemote {
		t.Error("local.Other() != remote")
	}
	if CohortRemote.Other() != CohortLocal {
		t.Error("remote.Other() != local")
	}
}

func TestCohortValuesMatchPetersonIndices(t *testing.T) {
	// The cohort values double as indices into Peterson's cohort[2] array
	// and as victim-word values; they must be exactly 0 and 1.
	if CohortLocal != 0 || CohortRemote != 1 {
		t.Fatalf("cohort values = %d/%d, want 0/1", CohortLocal, CohortRemote)
	}
}

func TestCohortString(t *testing.T) {
	if CohortLocal.String() != "LOCAL" || CohortRemote.String() != "REMOTE" {
		t.Errorf("strings = %q/%q", CohortLocal.String(), CohortRemote.String())
	}
}

func TestClassify(t *testing.T) {
	p := ptr.Pack(3, 128)
	if Classify(3, p) != CohortLocal {
		t.Error("same node must be local")
	}
	for _, n := range []int{0, 1, 2, 4, 15} {
		if Classify(n, p) != CohortRemote {
			t.Errorf("node %d must be remote for %v", n, p)
		}
	}
}

// Property: classification is a pure function of (threadNode == ptr node),
// and exactly one cohort ever results.
func TestQuickClassify(t *testing.T) {
	f := func(rawThread, rawPtrNode uint8, off uint64) bool {
		tn := int(rawThread) % ptr.MaxNodes
		pn := int(rawPtrNode) % ptr.MaxNodes
		p := ptr.Pack(pn, off&ptr.MaxOffset)
		c := Classify(tn, p)
		if tn == pn {
			return c == CohortLocal
		}
		return c == CohortRemote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Other is an involution.
func TestQuickOtherInvolution(t *testing.T) {
	f := func(raw bool) bool {
		c := CohortLocal
		if raw {
			c = CohortRemote
		}
		return c.Other().Other() == c && c.Other() != c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fakeHandle hands out a distinct state per acquisition and records what
// comes back on release.
type fakeHandle struct {
	next     uint64
	released []AcqState
}

func (f *fakeHandle) AcquireTimed(ptr.Ptr, Mode, int64) (AcqState, bool) {
	f.next++
	return AcqState{Word: f.next}, true
}

func (f *fakeHandle) ReleaseAcq(_ ptr.Ptr, _ Mode, st AcqState) {
	f.released = append(f.released, st)
}

// Blocking must hand each release the state of the matching acquisition —
// matched by lock and mode, most recent first — across overlapping holds.
func TestBlockingThreadsStatePerLockAndMode(t *testing.T) {
	f := &fakeHandle{}
	b := NewBlocking(f)
	l1, l2 := ptr.Pack(0, 64), ptr.Pack(1, 64)
	b.Lock(l1)  // state 1
	b.RLock(l2) // state 2
	b.RLock(l1) // state 3: same lock as 1, other mode
	b.Unlock(l1)
	b.RUnlock(l1)
	b.RUnlock(l2)
	want := []uint64{1, 3, 2}
	for i, st := range f.released {
		if st.Word != want[i] {
			t.Fatalf("release %d got state %d, want %d", i, st.Word, want[i])
		}
	}
	if len(f.released) != len(want) {
		t.Fatalf("%d releases reached the handle, want %d", len(f.released), len(want))
	}
	defer func() {
		if recover() == nil {
			t.Error("release without a matching acquire did not panic")
		}
	}()
	b.Unlock(l1)
}
