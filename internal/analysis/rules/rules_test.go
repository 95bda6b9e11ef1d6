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

func TestAllRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q incomplete: Name or Doc missing", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	wantNames := []string{"detrand", "maporder"}
	if len(names) != len(wantNames) {
		t.Errorf("All() has %d analyzers, want %d", len(names), len(wantNames))
	}
	for _, want := range wantNames {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
