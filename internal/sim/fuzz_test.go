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
// change it back before a poll. The spinner often waits on its own once the
// writers are done: the written-out loop then polls into the event budget
// (raceBudget) and traps, SpinWhile ends the run at once (waits forever). It
// returns a func that runs the world and reports the run: its fingerprint
// (Events, clock, the trap, every thread's return values and instants, and
// the word), its Events, and whether it trapped.
func spinRace(seed int64, spin spinFn, opts ...Option) func() (string, uint64, bool) {
	setup := rand.New(rand.NewSource(seed))
	e := New(2, 1024, model.CX3(), seed, append([]Option{WithMaxEvents(raceBudget)}, opts...)...)
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
	return func() (string, uint64, bool) {
		trap := recovered(func() { e.Run(1 << 40) })
		return fmt.Sprintf("events=%d now=%d word=%d trap=%q %v", e.Events(), e.Now(), *e.Space().WordAddr(w), fmt.Sprint(trap), logs), e.Events(), trap != nil
	}
}

// raceBudget is spinRace's event budget.
const raceBudget = 1 << 16

// FuzzSpinWhileMatchesLoop: a parked SpinWhile ends every run of spinRace
// the same way, trap included, on the serial executor and on one and two
// windowed workers, and so does the written-out Read/Pause loop. Where the
// loop does not trap, SpinWhile ends as it does; the loop traps exactly when
// SpinWhile does (a wait nothing ends) or counts more events than the budget
// (SpinWhile's skipped polls spend none of it).
//
//	go test ./internal/sim -run '^$' -fuzz '^FuzzSpinWhileMatchesLoop$' -fuzztime 15s
func FuzzSpinWhileMatchesLoop(f *testing.F) {
	restore := slots.SetCapacity(8) // WithShards(2) gets a real helper
	defer restore()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, -9, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		loop, _, loopTrapped := spinRace(seed, spinLoop)()
		var spin string
		var events uint64
		var trapped bool
		for workers, opts := range [][]Option{nil, {WithShards(1)}, {WithShards(2)}} {
			if got, _, _ := spinRace(seed, spinLoop, opts...)(); got != loop {
				t.Fatalf("seed %d, %d windowed workers, loop: runs ended differently\nserial: %s\ngot:    %s", seed, workers, loop, got)
			}
			got, n, tr := spinRace(seed, spinMethod, opts...)()
			if workers == 0 {
				spin, events, trapped = got, n, tr
			} else if got != spin {
				t.Fatalf("seed %d, %d windowed workers, SpinWhile: runs ended differently\nserial: %s\ngot:    %s", seed, workers, spin, got)
			}
		}
		if !loopTrapped && spin != loop {
			t.Fatalf("seed %d: SpinWhile ended unlike the loop\nloop:      %s\nSpinWhile: %s", seed, loop, spin)
		}
		if loopTrapped != (trapped || events > raceBudget) {
			t.Fatalf("seed %d: the loop trapped=%v, SpinWhile trapped=%v after %d events (budget %d)\nloop:      %s\nSpinWhile: %s",
				seed, loopTrapped, trapped, events, raceBudget, loop, spin)
		}
	})
}

// untilRace builds a world around one SpinUntil waiter on node 0 and the
// writers of spinRace: 1-3 on its node that Write or CAS the word, one on node
// 1 that RWrites it, every delay drawn from 0-64 ns so that stores and polls
// often share an instant, values in 0..7. Each of up to ten waits is for one
// state of the word's low two bits (0, 2 or 3), picked per wait and kept in Go
// state done reads; in state 1 alone a deadline, if the wait has one, also
// ends it. A wait is read-first, and then maybe re-entered once with the
// back-off kept and no deadline, or pause-first with iter carried from one
// re-entry to the next; it starts at a back-off of 0-2. As in spinRace, a wait
// nothing ends traps: the loop in the event budget, SpinUntil at once. It
// returns a func that runs the world and reports the run — its fingerprint
// (Events, clock, the trap, every thread's return values, iters and instants,
// and the word), every call of done, its Events, and whether it trapped.
func untilRace(seed int64, until untilFn, opts ...Option) func() (string, []pollSeen, uint64, bool) {
	setup := rand.New(rand.NewSource(seed))
	e := New(2, 1024, model.CX3(), seed, append([]Option{WithMaxEvents(raceBudget)}, opts...)...)
	w := e.Space().AllocLine(0)
	var logs [10][]string // per thread: threads on different shards run concurrently
	note := func(id int64, v uint64, iter int, at int64) {
		logs[id] = append(logs[id], fmt.Sprintf("%d/%d@%d", v, iter, at))
	}
	var asked []pollSeen
	var state uint64 // the state the wait in progress is for
	done := func(v uint64, expired bool) bool {
		ok := v&3 == state || v&3 == 1 && expired
		asked = append(asked, pollSeen{v, expired, ok, -1, 0})
		return ok
	}
	waits := 1 + setup.Intn(10)
	e.Spawn(0, func(ctx api.Ctx) {
		rng := rand.New(rand.NewSource(seed<<4 + 1))
		for i := 0; i < waits; i++ {
			state = []uint64{0, 2, 3}[rng.Intn(3)]
			deadline := int64(0) // none, or one a few polls or a remote write away
			switch rng.Intn(3) {
			case 1:
				deadline = ctx.Now() + int64(rng.Intn(400))
			case 2:
				deadline = ctx.Now() + int64(rng.Intn(4000))
			}
			v, iter := uint64(0), rng.Intn(3)
			if rng.Intn(2) == 0 { // read-first
				v, iter = until(ctx, w, iter, deadline, done)
				if v&3 != state && rng.Intn(2) == 0 {
					v, iter = until(ctx, w, iter, 0, done)
				}
			} else { // pause-first
				for v = ctx.Read(w); v&3 != state && (deadline <= 0 || ctx.Now() < deadline); {
					ctx.Pause(iter)
					v, iter = until(ctx, w, iter+1, deadline, done)
				}
			}
			note(0, v, iter, ctx.Now())
			ctx.Work(time.Duration(rng.Intn(65)))
		}
	})
	writer := func(node int, id int64) {
		e.Spawn(node, func(ctx api.Ctx) {
			rng := rand.New(rand.NewSource(seed<<4 + id))
			for i, n := 0, 1+rng.Intn(12); i < n; i++ {
				ctx.Work(time.Duration(rng.Intn(65)))
				v := uint64(rng.Intn(8))
				switch {
				case node != 0:
					ctx.RWrite(w, v)
				case rng.Intn(3) == 0:
					ctx.CAS(w, uint64(rng.Intn(8)), v)
				default:
					ctx.Write(w, v)
				}
			}
			note(id, 0, 0, ctx.Now())
		})
	}
	for k, n := 0, 1+setup.Intn(3); k < n; k++ {
		writer(0, int64(2+k))
	}
	writer(1, 9)
	return func() (string, []pollSeen, uint64, bool) {
		trap := recovered(func() { e.Run(1 << 40) })
		return fmt.Sprintf("events=%d now=%d word=%d trap=%q %v", e.Events(), e.Now(), *e.Space().WordAddr(w), fmt.Sprint(trap), logs),
			asked, e.Events(), trap != nil
	}
}

// FuzzSpinUntilMatchesLoop: a parked SpinUntil ends every run of untilRace
// the same way, trap and every call of done included, on the serial executor
// and on one and two windowed workers, and so does the written-out loop.
// Where the loop does not trap, SpinUntil ends as it does and asks done on a
// subsequence of the loop's polls, with the same answers, every poll that
// ended a wait among them (askedLikeLoop); the loop traps exactly when
// SpinUntil does (a wait nothing ends) or counts more events than the budget
// (SpinUntil's skipped polls spend none of it).
//
//	go test ./internal/sim -run '^$' -fuzz '^FuzzSpinUntilMatchesLoop$' -fuzztime 15s
func FuzzSpinUntilMatchesLoop(f *testing.F) {
	restore := slots.SetCapacity(8) // WithShards(2) gets a real helper
	defer restore()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, -9, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		loop, loopAsked, _, loopTrapped := untilRace(seed, untilLoop)()
		var until string
		var asked []pollSeen
		var events uint64
		var trapped bool
		for workers, opts := range [][]Option{nil, {WithShards(1)}, {WithShards(2)}} {
			if got, gotAsked, _, _ := untilRace(seed, untilLoop, opts...)(); got != loop || !reflect.DeepEqual(gotAsked, loopAsked) {
				t.Fatalf("seed %d, %d windowed workers, loop: runs ended differently\nserial: %s\ngot:    %s", seed, workers, loop, got)
			}
			got, gotAsked, n, tr := untilRace(seed, untilMethod, opts...)()
			if workers == 0 {
				until, asked, events, trapped = got, gotAsked, n, tr
			} else if got != until || !reflect.DeepEqual(gotAsked, asked) {
				t.Fatalf("seed %d, %d windowed workers, SpinUntil: runs ended differently\nserial: %s %v\ngot:    %s %v", seed, workers, until, asked, got, gotAsked)
			}
		}
		if !loopTrapped && (until != loop || !askedLikeLoop(loopAsked, asked)) {
			t.Fatalf("seed %d: SpinUntil ended unlike the loop\nloop:      %s %v\nSpinUntil: %s %v", seed, loop, loopAsked, until, asked)
		}
		if loopTrapped != (trapped || events > raceBudget) {
			t.Fatalf("seed %d: the loop trapped=%v, SpinUntil trapped=%v after %d events (budget %d)\nloop:      %s\nSpinUntil: %s",
				seed, loopTrapped, trapped, events, raceBudget, loop, until)
		}
	})
}
