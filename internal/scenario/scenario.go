// Package scenario is a registry of named, self-describing experiment
// scenarios. A scenario expands to a slice of harness configurations —
// anything from one run to a full paper-figure grid — which the sweep
// runner executes in parallel. Scenarios make workloads first-class: the
// CLIs list them by name (`-list-scenarios`), papers' sweeps and
// extensions beyond the paper live side by side, and a new workload shape
// is one Register call away.
package scenario

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"alock/internal/harness"
)

// Scenario is one named experiment family.
type Scenario struct {
	// Name identifies the scenario; paper reproductions are namespaced
	// "paper/...", extensions are bare or grouped (rw/..., fail/...).
	Name string
	// Description is a one-line summary for -list-scenarios.
	Description string
	// Expand produces the scenario's configuration grid at the given
	// scale. Expansion is pure: same scale, same configs.
	Expand func(s harness.Scale) []harness.Config
	// Scale, when non-nil, rewrites the global scale before Expand runs —
	// per-scenario thread lists, horizons or op targets via the override
	// fields of harness.Scale. Heavyweight scenarios use it to decouple
	// from the presets; TestTiny still wins so smoke tests stay tiny.
	// Callers go through Configs, which applies it.
	Scale func(s harness.Scale) harness.Scale
}

// Configs expands the scenario at the given scale with its per-scenario
// scale override applied. Every runner (CLIs, tests) should use this, not
// Expand directly, or override-bearing scenarios run at the wrong scale.
func (sc Scenario) Configs(s harness.Scale) []harness.Config {
	if sc.Scale != nil {
		s = sc.Scale(s)
	}
	return sc.Expand(s)
}

var (
	mu       sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the registry; it panics on a duplicate or
// unnamed scenario (registration is programmer intent, not user input).
func Register(sc Scenario) {
	if sc.Name == "" || sc.Expand == nil {
		panic("scenario: Register needs a name and an Expand func")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", sc.Name))
	}
	registry[sc.Name] = sc
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	mu.RLock()
	defer mu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered scenario, sorted by name. It iterates the
// registry by sorted key (not map order) so the traversal itself is
// deterministic, as the maporder analyzer requires.
func All() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// List writes the registry as the CLIs' -list-scenarios prints it: a header,
// then one line per scenario — name and description — in All's order.
func List(w io.Writer) {
	fmt.Fprintln(w, "registered scenarios:")
	for _, sc := range All() {
		fmt.Fprintf(w, "  %-28s %s\n", sc.Name, sc.Description)
	}
}

// ByPrefix returns every registered scenario whose name starts with one of
// the given prefixes, sorted by name. The reader/writer figure uses it to
// sweep whole families (rw/, lease/, fail/) without naming each member.
func ByPrefix(prefixes ...string) []Scenario {
	var out []Scenario
	for _, sc := range All() {
		for _, p := range prefixes {
			if strings.HasPrefix(sc.Name, p) {
				out = append(out, sc)
				break
			}
		}
	}
	return out
}
