package rules

import (
	"strings"
	"testing"

	"alock/internal/analysis"
)

// TestModuleIsLintClean runs both checks over every package `go list ./...`
// names from the module root and fails on any finding: an unsuppressed
// report, a malformed waiver, or a stale one that suppresses nothing.
func TestModuleIsLintClean(t *testing.T) {
	_, pkgs := sharedModule(t)
	if len(pkgs) == 0 {
		t.Fatal("no module packages loaded")
	}
	for _, f := range analysis.Run(pkgs, All()) {
		t.Error(f)
	}
	t.Logf("%d packages checked", len(pkgs))
}

func TestDetrand(t *testing.T) {
	runFixture(t, "testdata/src/detrand", "detrandtest", Detrand)
}

// TestDetrandAllowedPackage checks the package allowlist: the same kind of
// violations produce no findings when the package path is exempt.
func TestDetrandAllowedPackage(t *testing.T) {
	runFixture(t, "testdata/src/detrand_allowed", "alock/internal/rt", Detrand)
}

func TestSuppressionPolicy(t *testing.T) {
	runFixture(t, "testdata/src/suppress", "suppresstest", Detrand, Maporder)
}

func TestMaporder(t *testing.T) {
	runFixture(t, "testdata/src/maporder", "maportest", Maporder)
}

// TestAllRegistered pins the check set: exactly detrand and maporder, each
// with a Run.
func TestAllRegistered(t *testing.T) {
	var names []string
	for _, c := range All() {
		if c.Run == nil {
			t.Errorf("check %q has no Run", c.Name)
		}
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "detrand,maporder" {
		t.Errorf("All() = %s, want detrand,maporder", got)
	}
}
