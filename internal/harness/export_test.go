package harness

import (
	"os"
	"testing"

	"alock/internal/model"
	"alock/internal/sim"
)

// testMaxEvents caps the events every engine this package's tests build
// dispatches, serial or windowed, so a run that deadlocks (two threads each
// holding the lock the other waits for, spinning forever) fails in seconds
// instead of hanging until the go test timeout: with "exceeded N events —
// livelock?" while anything still polls, works or sends verbs, or with
// "thread N waits forever in SpinWhile on <word>" once every live thread is
// parked on a local word (a parked wait spends no budget). The largest
// healthy run here (TestSteadyStateAllocsPerOp) takes between 2^22 and 2^23
// events, so the cap leaves 8x headroom; internal/scenario keeps the same
// cap.
const testMaxEvents = 1 << 26

func TestMain(m *testing.M) {
	build := newEngine
	newEngine = func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine {
		return build(nodes, wordsPerNode, p, seed, append(opts, sim.WithMaxEvents(testMaxEvents))...)
	}
	os.Exit(m.Run())
}

// onSerialExecutor runs f with every engine Run builds left without its
// options but the event cap: the plain serial dispatch loop, the reference
// the windowed executor and its stop-guard handoff are held to, which no
// config value selects. Tests calling it must not run in parallel with
// others.
func onSerialExecutor(f func()) {
	build := newEngine
	defer func() { newEngine = build }()
	newEngine = serialEngine
	f()
}

// MustRun is Run that panics on error, for test configs statically known
// to be valid.
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// serialEngine is sim.New without the options (no WithShards), capped at
// testMaxEvents.
func serialEngine(nodes, wordsPerNode int, p model.Params, seed int64, _ ...sim.Option) *sim.Engine {
	return sim.New(nodes, wordsPerNode, p, seed, sim.WithMaxEvents(testMaxEvents))
}
