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
	wantNames := []string{"detrand", "maporder", "allocfree", "guardflow"}
	if len(names) != len(wantNames) {
		t.Errorf("All() has %d analyzers, want %d", len(names), len(wantNames))
	}
	for _, want := range wantNames {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
