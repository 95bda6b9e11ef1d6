package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

const (
	modulePrefix = "alock/internal/"
	// eventqKey is kept beside the buckets: the event queue's self time is
	// part of share.sim and also reported alone.
	eventqKey = "sim.eventq"
)

// buckets are the names host self time is attributed to; the shares over
// them sum to 1.
func buckets() []string {
	return append(append([]string{"runtime"}, layers...), "other")
}

// bucket names the layer a profiled function belongs to, from its package
// path. runtime covers the Go scheduler, channel handoff, GC and the
// assembly helpers that carry no package.
func bucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "internal/abi.", "internal/cpu.",
		"internal/bytealg.", "internal/sync.", "sync.", "sync/atomic."} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	if !strings.Contains(fn, ".") {
		return "runtime" // memeqbody, aeshashbody, gosave_systemstack_switch, ...
	}
	return "other"
}

func isEventq(fn string) bool {
	return strings.HasPrefix(fn, modulePrefix+"sim.(*eventQueue).") || fn == modulePrefix+"sim.eventLess"
}

var pprofUnits = map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600}

// parseSeconds reads a pprof time such as "0.21s", "40ms" or "0".
func parseSeconds(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' && r != '-' })
	if i < 0 {
		i = len(s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("pprof time %q: %w", s, err)
	}
	if s[i:] == "" {
		return v, nil
	}
	u, ok := pprofUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("pprof time %q: unknown unit", s)
	}
	return v * u, nil
}

// parseTop buckets the flat column of `go tool pprof -top` text. The rows
// follow the header line that starts with "flat"; a row is
// flat flat% sum% cum cum% name, and a name may end in " (inline)".
func parseTop(text string) (map[string]float64, error) {
	self := map[string]float64{}
	inRows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseSeconds(f[0])
		if err != nil {
			return nil, err
		}
		fn := f[5] // a Go symbol has no spaces; what follows is the " (inline)" note
		self[bucket(fn)] += flat
		if isEventq(fn) {
			self[eventqKey] += flat
		}
	}
	if !inRows {
		return nil, fmt.Errorf("pprof -top output has no header row")
	}
	return self, nil
}

// profileSelf reads one child's CPU profile into seconds of self time per
// bucket.
func profileSelf(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=100000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseTop(string(out))
}
