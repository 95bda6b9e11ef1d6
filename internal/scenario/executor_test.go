package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, for the harness's serial-executor hook

	"alock/internal/harness"
	"alock/internal/model"
	"alock/internal/sim"
	"alock/internal/sweep"
)

// newEngine is the harness's engine constructor (the variable of the same
// name): the scenario tests swap it, while no sweep they compare runs, to
// reach what no config value does — the serial executor — and what
// harness.Result does not carry — the engine's resumes and window telemetry.
//
//go:linkname newEngine alock/internal/harness.newEngine
var newEngine func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine

// testMaxEvents caps the events every engine this package's tests build
// dispatches, as the harness tests do: a deadlocked run fails in seconds
// instead of hanging until the go test timeout, with "exceeded N events —
// livelock?" or, once every live thread is parked in SpinWhile with nothing
// left to run, "thread N waits forever in SpinWhile on <word>". The largest
// healthy run here (TestEngineCensus) takes between 2^22 and 2^23 events.
const testMaxEvents = 1 << 26

func TestMain(m *testing.M) {
	build := newEngine
	newEngine = func(nodes, wordsPerNode int, p model.Params, seed int64, opts ...sim.Option) *sim.Engine {
		return build(nodes, wordsPerNode, p, seed, append(opts, sim.WithMaxEvents(testMaxEvents))...)
	}
	os.Exit(m.Run())
}

// serialEngine is sim.New without the options (no WithShards), capped at
// testMaxEvents.
func serialEngine(nodes, wordsPerNode int, p model.Params, seed int64, _ ...sim.Option) *sim.Engine {
	return sim.New(nodes, wordsPerNode, p, seed, sim.WithMaxEvents(testMaxEvents))
}

// TestTypedEngineMatchesOracleEveryScenario is the executor acceptance gate:
// every registered scenario, expanded at smoke scale, must produce
// bit-identical results on the serial executor (typed 4-ary event heap, the
// serial dispatch loop) and on the conservative windowed executor — at auto
// width (EngineShards 0, what every harness run gets by default), on the Run
// caller alone and on four workers. Closed-loop scenarios carry TargetOps, so those runs
// hand their last windows to the serial loop through the stop guard; the
// windowed-closed-loop variant clears TargetOps — on the serial side too — to
// drive the windowed executor with closed-loop traffic to the end. The
// windowed sweeps run at another -parallel setting than the serial ones, so
// the comparison also re-proves sweep determinism.
//
// The serial executor is reached through the harness's test hook, and only
// while the baselines run, up front: the subtests then run in parallel.
//
// The oracle in the name is testdata/digests.golden: it was recorded at this
// same scale while the container/heap engine still ran as a third variant
// here and agreed, so it is that engine's answer for every scenario, checked
// in. TestScenarioDigests holds the default run to it, this test holds every
// width to the serial executor, and internal/sim's reference replay checks
// the queue order itself against container/heap. (The test keeps its old
// name because the per-scenario subtest ids are pinned.)
func TestTypedEngineMatchesOracleEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := harness.Scale{TestTiny: true}
	windowed := func(c *harness.Config) { c.EngineShards = 4 }
	// closedLoop rewrites a TargetOps config to run to its horizon; it drops
	// configs that have no target (covered as they are), wait-die ones
	// (serial at any width) and ones with no finite horizon: qp-thrashing
	// measures over noHorizonNS and stops on TargetOps alone, so without a
	// target it would run 2^40 virtual ns.
	closedLoop := func(c *harness.Config) bool {
		if c.TargetOps == 0 || c.MeasureNS >= noHorizonNS {
			return false
		}
		c.TargetOps = 0
		return c.RunsWindowed()
	}
	variants := []struct {
		name     string
		parallel int
		closed   bool // run on the closedLoop rewrite of the scenario's configs
		mutate   func(*harness.Config)
	}{
		{"auto", 2, false, func(*harness.Config) {}},
		{"one-worker", 2, false, func(c *harness.Config) { c.EngineShards = 1 }},
		{"windowed", 2, false, windowed},
		{"windowed-closed-loop", 2, true, windowed},
	}

	// bases[i] holds scenario i's configs and their closed-loop rewrite;
	// want[i] the serial executor's results for each.
	scs := All()
	bases := make([][2][]harness.Config, len(scs))
	var all []harness.Config
	for i, sc := range scs {
		bases[i][0] = sc.Configs(s)
		for _, c := range bases[i][0] {
			if closedLoop(&c) {
				bases[i][1] = append(bases[i][1], c)
			}
		}
		all = append(append(all, bases[i][0]...), bases[i][1]...)
	}
	build := newEngine
	newEngine = serialEngine
	serial, err := sweep.Runner{Parallel: 4}.Run(all)
	newEngine = build
	if err != nil {
		t.Fatalf("serial baselines: %v", err)
	}
	want := make([][2][]harness.Result, len(scs))
	for i := range scs {
		for k, base := range bases[i] {
			want[i][k], serial = serial[:len(base)], serial[len(base):]
		}
	}

	for i, sc := range scs {
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			for _, v := range variants {
				k := 0
				if v.closed {
					k = 1
				}
				base := bases[i][k]
				vcfgs := make([]harness.Config, len(base))
				for j, c := range base {
					v.mutate(&c)
					vcfgs[j] = c
				}
				got, err := sweep.Runner{Parallel: v.parallel}.Run(vcfgs)
				if err != nil {
					t.Fatalf("%s (%s): %v", sc.Name, v.name, err)
				}
				for j := range base {
					// The executor width is the one legitimate difference;
					// everything else must match bit for bit.
					g := got[j]
					g.Config.EngineShards = 0
					if !reflect.DeepEqual(want[i][k][j], g) {
						t.Errorf("%s: config %d (%s) diverged between the serial and %s executors",
							sc.Name, j, base[j].Algorithm, v.name)
					}
				}
			}
		})
	}
}
