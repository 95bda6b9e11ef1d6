package harness

import (
	"alock/internal/model"
	"alock/internal/sim"
)

// onSerialExecutor runs f with every engine Run builds left without its
// options: the plain ProcessNextEvent loop, the reference the windowed
// executor and its stop-guard handoff are held to, which no config value
// selects. Tests calling it must not run in parallel with others.
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

// serialEngine is sim.New without the options: no WithShards.
func serialEngine(nodes, wordsPerNode int, p model.Params, seed int64, _ ...sim.Option) *sim.Engine {
	return sim.New(nodes, wordsPerNode, p, seed)
}
