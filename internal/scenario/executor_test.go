package scenario

import (
	"reflect"
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// TestTypedEngineMatchesOracleEveryScenario is the executor acceptance gate:
// every registered scenario, expanded at smoke scale, must produce
// bit-identical results on both executors — serial (typed 4-ary event heap,
// the ProcessNextEvent loop) and the conservative windowed parallel executor
// (EngineShards=4). Closed-loop scenarios carry TargetOps, which runs serial
// at any width, so the windowed-closed-loop variant clears it — on the
// serial side too — to drive the windowed executor with closed-loop traffic.
// The serial and windowed sweeps run at different -parallel settings, so the
// comparison also re-proves sweep determinism.
//
// The oracle in the name is testdata/digests.golden: it was recorded at this
// same scale while the container/heap engine still ran as a third variant
// here and agreed, so it is that engine's answer for every scenario, checked
// in. TestScenarioDigests holds the serial executor to it, this test holds
// the windowed executor to the serial one, and internal/sim's reference
// replay checks the queue order itself against container/heap. (The test
// keeps its pre-PR-15 name because the per-scenario subtest ids are pinned.)
func TestTypedEngineMatchesOracleEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := harness.Scale{TestTiny: true}
	windowed := func(c *harness.Config) { c.EngineShards = 4 }
	variants := []struct {
		name     string
		parallel int
		// rebase, when non-nil, first rewrites the scenario's configs (the
		// serial baseline is re-run on the result); it drops a config by
		// returning false.
		rebase func(*harness.Config) bool
		mutate func(*harness.Config)
	}{
		{"windowed", 2, nil, windowed},
		{"windowed-closed-loop", 2, func(c *harness.Config) bool {
			if c.TargetOps == 0 {
				return false // already windowed-eligible: covered above
			}
			c.TargetOps = 0
			w := *c
			windowed(&w)
			return w.RunsWindowed() // false for wait-die
		}, windowed},
	}
	for _, sc := range All() {
		sc := sc
		name := strings.ReplaceAll(sc.Name, "/", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfgs := sc.Configs(s)
			serial, err := sweep.Runner{Parallel: 4}.Run(cfgs)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			for _, v := range variants {
				base, want := cfgs, serial
				if v.rebase != nil {
					base = nil
					for _, c := range cfgs {
						if v.rebase(&c) {
							base = append(base, c)
						}
					}
					if want, err = (sweep.Runner{Parallel: 4}).Run(base); err != nil {
						t.Fatalf("%s (%s baseline): %v", sc.Name, v.name, err)
					}
				}
				vcfgs := make([]harness.Config, len(base))
				for i, c := range base {
					v.mutate(&c)
					vcfgs[i] = c
				}
				got, err := sweep.Runner{Parallel: v.parallel}.Run(vcfgs)
				if err != nil {
					t.Fatalf("%s (%s): %v", sc.Name, v.name, err)
				}
				for i := range want {
					// The executor width is the one legitimate difference;
					// everything else must match bit for bit.
					g := got[i]
					g.Config.EngineShards = 0
					if !reflect.DeepEqual(want[i], g) {
						t.Errorf("%s: config %d (%s) diverged between the serial and %s executors",
							sc.Name, i, base[i].Algorithm, v.name)
					}
				}
			}
		})
	}
}
