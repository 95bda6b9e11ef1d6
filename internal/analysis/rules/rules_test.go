package rules

import (
	"testing"

	"alock/internal/analysis/analysistest"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrand", "detrandtest", Detrand)
}

// TestDetrandAllowedPackage checks the package allowlist: the same kind of
// violations produce no findings when the package path is exempt.
func TestDetrandAllowedPackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrand_allowed", "alock/internal/rt", Detrand)
}

func TestSuppressionPolicy(t *testing.T) {
	analysistest.Run(t, "testdata/src/suppress", "suppresstest", Detrand, Maporder)
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata/src/maporder", "maportest", Maporder)
}

func TestRnggate(t *testing.T) {
	analysistest.Run(t, "testdata/src/rnggate", "rnggatetest", Rnggate)
}

// TestGuardcheck runs guardflow's acquire-site rules: discarded results and
// unread outcomes, pass-through and suppression exempt.
func TestGuardcheck(t *testing.T) {
	analysistest.Run(t, "testdata/src/guardcheck", "guardchecktest", Guardflow)
}

// TestGuardflow runs the interprocedural guard-lifetime rules: leaks on
// early returns and timeout branches, escapes, delegation through
// summaries, double release, reacquire-while-held.
func TestGuardflow(t *testing.T) {
	analysistest.Run(t, "testdata/src/guardflow", "guardflowtest", Guardflow)
}

// TestAllocfree runs the interprocedural allocation check over a fixture
// root set; the slow-handler case proves call-through-interface
// reachability.
func TestAllocfree(t *testing.T) {
	analysistest.Run(t, "testdata/src/allocfree", "allocfreetest",
		NewAllocfree([]string{"allocfreetest.(*Engine).Step"}))
}

// TestLockorder runs the acquisition-order check: constant, if-swap, and
// sorted-slice evidence, with alias tracing and producer sorts.
func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata/src/lockorder", "lockordertest", Lockorder)
}

// TestShardflow runs the dispatch-reachability check: direct substrate
// access is flagged in anything reachable from the modeled runWindow root
// or a Spawn-registered thread body (including go and defer edges), and
// tolerated in the sanctioned accessors and in unreachable code outside the
// engine and lock packages.
func TestShardflow(t *testing.T) {
	analysistest.Run(t, "testdata/src/shardflow", "shardflowtest",
		NewShardflow([]string{"shardflowtest.(*Engine).runWindow"}))
}

// TestShardflowScopes checks the package rule under an in-scope import path
// (the locks scope): with no dispatch root at all, every function outside
// the sanctioned set that resolves words directly is flagged.
func TestShardflowScopes(t *testing.T) {
	analysistest.Run(t, "testdata/src/shardflow/scoped", "alock/internal/locks", NewShardflow(nil))
}

// TestShardmemOutOfScope checks that the package rule is silent outside the
// sim/locks scopes even with direct substrate access present.
func TestShardmemOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/src/shardmem_outofscope", "alock/internal/harness", NewShardflow(nil))
}

func TestAllRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q incomplete: Name or Doc missing", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	wantNames := []string{"detrand", "maporder", "rnggate", "allocfree", "guardflow", "lockorder", "shardflow"}
	if len(names) != len(wantNames) {
		t.Errorf("All() has %d analyzers, want %d", len(names), len(wantNames))
	}
	for _, want := range wantNames {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
