package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// neverHandOff is the FuzzExecutorsAgree barrier that never hands the Run to
// the serial loop.
const neverHandOff = math.MaxUint16

// FuzzExecutorsAgree: a postedWorld seed runs on the serial executor, on one
// windowed worker and on two, with a stop guard that hands the windowed Runs
// to the serial loop at the given barrier (0: before the first window;
// neverHandOff: not at all). All three must end on the same clock, Events,
// memory image and NIC stats, with every thread having observed the same
// values at the same times — the property that lets every harness run take
// the windowed executor, over more schedules than the fixed-seed tests run.
//
//	go test ./internal/sim -run '^$' -fuzz '^FuzzExecutorsAgree$' -fuzztime 15s
func FuzzExecutorsAgree(f *testing.F) {
	restore := slots.SetCapacity(8) // WithShards(2) gets a real helper
	defer restore()
	for _, c := range []struct {
		seed    int64
		barrier uint16
	}{
		{1, neverHandOff}, {2, 0}, {3, 1}, {4, 7}, {5, 40}, {-6, 3}, {1 << 40, neverHandOff},
	} {
		f.Add(c.seed, c.barrier)
	}
	f.Fuzz(func(t *testing.T, seed int64, barrier uint16) {
		serial, words, want := postedWorld(seed, posted)
		serial.Run(1 << 40)
		wantPrint := fingerprint(serial, words)
		for _, workers := range []int{1, 2} {
			e, words, got := postedWorld(seed, posted, WithShards(workers))
			if barrier != neverHandOff {
				barriers := 0
				e.SetStopGuard(func(int64) bool {
					barriers++
					return barriers > int(barrier)
				})
			}
			e.Run(1 << 40)
			if gotPrint := fingerprint(e, words); gotPrint != wantPrint {
				t.Fatalf("seed %d, hand-off at barrier %d, %d workers: runs ended differently\nserial:   %s\nwindowed: %s",
					seed, barrier, workers, wantPrint, gotPrint)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, hand-off at barrier %d, %d workers: threads observed different values or times", seed, barrier, workers)
			}
		}
	})
}

// spinRace builds a world around one SpinWhile: a spinner on node 0 that
// waits out the word's value up to ten times, with and without deadlines, 1-3
// writers on its node that Write or CAS it, and one on node 1 that RWrites
// it, every delay drawn from 0-64 ns so that stores and polls often share an
// instant. Values stay in 0..3, so stores often leave the word as it was or
// change it back before a poll. The spinner waits on its own when the writers
// are done, until the event budget traps it — the budget's count and clock are
// part of the outcome too. It returns a func that runs the world and
// fingerprints the run: Events, clock, the trap, every thread's return values
// and instants, and the word.
func spinRace(seed int64, spin spinFn, opts ...Option) func() string {
	setup := rand.New(rand.NewSource(seed))
	e := New(2, 1024, model.CX3(), seed, append([]Option{WithMaxEvents(1 << 16)}, opts...)...)
	w := e.Space().AllocLine(0)
	var logs [10][]string // per thread: threads on different shards run concurrently
	note := func(id int64, v uint64, at int64) { logs[id] = append(logs[id], fmt.Sprintf("%d@%d", v, at)) }
	waits := 1 + setup.Intn(10)
	e.Spawn(0, func(ctx api.Ctx) {
		rng := rand.New(rand.NewSource(seed<<4 + 1))
		cur := uint64(0)
		for i := 0; i < waits; i++ {
			deadline := int64(0) // none, or one a few polls or a remote write away
			switch rng.Intn(3) {
			case 1:
				deadline = ctx.Now() + int64(rng.Intn(400))
			case 2:
				deadline = ctx.Now() + int64(rng.Intn(4000))
			}
			cur = spin(ctx, w, cur, deadline)
			note(0, cur, ctx.Now())
			ctx.Work(time.Duration(rng.Intn(65)))
		}
	})
	writer := func(node int, id int64) {
		e.Spawn(node, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<4 + id))
			for i, n := 0, 1+rng.Intn(12); i < n; i++ {
				ctx.Work(time.Duration(rng.Intn(65)))
				v := uint64(rng.Intn(4))
				switch {
				case node != 0:
					ctx.RWrite(w, v)
				case rng.Intn(3) == 0:
					ctx.CAS(w, uint64(rng.Intn(4)), v)
				default:
					ctx.Write(w, v)
				}
			}
			note(id, 0, ctx.Now())
		})
	}
	for k, n := 0, 1+setup.Intn(3); k < n; k++ {
		writer(0, int64(2+k))
	}
	writer(1, 9)
	return func() string {
		trap := fmt.Sprint(recovered(func() { e.Run(1 << 40) }))
		return fmt.Sprintf("events=%d now=%d word=%d trap=%q %v", e.Events(), e.Now(), *e.Space().WordAddr(w), trap, logs)
	}
}

// FuzzSpinWhileMatchesLoop: a parked SpinWhile ends every run of spinRace
// exactly as the written-out Read/Pause loop does — on the serial executor
// and on one and two windowed workers, which must also agree with each other.
//
//	go test ./internal/sim -run '^$' -fuzz '^FuzzSpinWhileMatchesLoop$' -fuzztime 15s
func FuzzSpinWhileMatchesLoop(f *testing.F) {
	restore := slots.SetCapacity(8) // WithShards(2) gets a real helper
	defer restore()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, -9, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want := spinRace(seed, spinLoop)()
		for workers, opts := range [][]Option{nil, {WithShards(1)}, {WithShards(2)}} {
			for name, spin := range map[string]spinFn{"loop": spinLoop, "SpinWhile": spinMethod} {
				if got := spinRace(seed, spin, opts...)(); got != want {
					t.Fatalf("seed %d, %d windowed workers, %s: runs ended differently\nserial loop: %s\ngot:         %s",
						seed, workers, name, want, got)
				}
			}
		}
	})
}
