package sim

import (
	"math"
	"reflect"
	"testing"

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
