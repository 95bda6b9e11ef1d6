package scenario

import (
	"reflect"
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// TestTypedEngineMatchesOracleEveryScenario is the engine-swap acceptance
// gate: every registered scenario, expanded at smoke scale, must produce
// bit-identical results on every engine configuration — the production
// engine (typed 4-ary event heap, direct-handoff run loop), the reference
// engine (container/heap, scheduler-mediated loop) and the conservative
// windowed parallel executor (EngineShards=4). Closed-loop scenarios carry
// TargetOps, which runs serial at any width, so the windowed-closed-loop
// variant clears it — on the reference side too — to drive the windowed
// executor with closed-loop traffic. The typed runs go through the parallel
// sweep runner and the oracle runs serially, so the comparison also
// re-proves sweep determinism at any -parallel setting against independent
// engine implementations.
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
		// typed reference is re-run on the result); it drops a config by
		// returning false.
		rebase func(*harness.Config) bool
		mutate func(*harness.Config)
	}{
		{"oracle", 1, nil, func(c *harness.Config) { c.Oracle = true }},
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
			typed, err := sweep.Runner{Parallel: 4}.Run(cfgs)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			for _, v := range variants {
				base, want := cfgs, typed
				if v.rebase != nil {
					base = nil
					for _, c := range cfgs {
						if v.rebase(&c) {
							base = append(base, c)
						}
					}
					if want, err = (sweep.Runner{Parallel: 4}).Run(base); err != nil {
						t.Fatalf("%s (%s reference): %v", sc.Name, v.name, err)
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
					// The engine-selection knobs are the one legitimate
					// difference; everything else must match bit for bit.
					g := got[i]
					g.Config.Oracle = false
					g.Config.EngineShards = 0
					if !reflect.DeepEqual(want[i], g) {
						t.Errorf("%s: config %d (%s) diverged between typed and %s engines",
							sc.Name, i, base[i].Algorithm, v.name)
					}
				}
			}
		})
	}
}
