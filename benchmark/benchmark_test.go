package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The tests spawn no simulation: they exercise parsing, canonicalisation,
// statistics and the agreement between BENCHMARK.json and the code.

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseTopBuckets(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	self, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":     0.29, // siftDown + eventLess (inline)
		eventqKey: 0.29,
		"runtime": 0.28, // casgstatus, memclr, aeshashbody, internal/runtime/maps
		"core":    0.06,
		"cluster": 0.01,
		"locks":   0.01,
		"other":   0.02, // alock/internal/ptr (given in ms) and math/rand
		"mem":     0,    // cumulative-only rows add no self time
		"nic":     0,
	}
	for k, w := range want {
		if !near(self[k], w) {
			t.Errorf("self[%q] = %v, want %v", k, self[k], w)
		}
	}
	if _, err := parseTop("no header here\n"); err == nil {
		t.Error("text without a header row parsed")
	}
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"alock/internal/sim.(*Engine).run.func1":       "sim",
		"alock/internal/slots.Acquire":                 "slots",
		"alock/internal/stats.(*Histogram).Record":     "stats",
		"alock/internal/api.Token.Valid":               "other",
		"alock/internal/simx.F":                        "other",
		"runtime.chansend":                             "runtime",
		"runtime/internal/syscall.Syscall6":            "runtime",
		"internal/runtime/atomic.(*Int32).Add":         "runtime",
		"sync.(*Mutex).Lock":                           "runtime",
		"gosave_systemstack_switch":                    "runtime",
		"encoding/json.(*encodeState).marshal":         "other",
		"main.runScenario":                             "other",
		"alock/internal/workload.(*Runner).loop.func2": "workload",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
	if !isEventq("alock/internal/sim.(*eventQueue).push") || !isEventq("alock/internal/sim.eventLess") ||
		isEventq("alock/internal/sim.(*Engine).pop") {
		t.Error("isEventq misclassifies")
	}
}

func TestParseSeconds(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.25s": 1.25, "2mins": 120, "500us": 0.0005} {
		got, err := parseSeconds(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSeconds("3parsecs"); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestDigestCanonical(t *testing.T) {
	serial, err := os.ReadFile("testdata/result-serial.json")
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := os.ReadFile("testdata/result-windowed.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := digest(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := digest(windowed)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("digest depends on key order or Config.EngineShards: %s vs %s", a, b)
	}
	// The last digit of a float is part of the result.
	moved := bytes.Replace(serial, []byte("25599500.123456789"), []byte("25599500.123456788"), 1)
	if c, _ := digest(moved); c == a {
		t.Error("digest ignores a changed digit")
	}
	// A single-config object hashes like a one-element array.
	one := bytes.TrimSpace(serial)
	one = bytes.TrimSpace(one[1 : len(one)-1])
	if c, _ := digest(one); c != a {
		t.Error("object and one-element array hash differently")
	}
}

func TestParseAndCheckResults(t *testing.T) {
	serial, err := os.ReadFile("testdata/result-serial.json")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := parseResults(serial)
	if err != nil || len(rs) != 1 {
		t.Fatalf("parseResults: %v, %d results", err, len(rs))
	}
	r := rs[0]
	if r.Config.Algorithm != "alock" || r.Config.ThreadsPerNode != 12 || r.Events != 11410218 || r.NIC.Verbs != 741234 {
		t.Errorf("fields not bound: %+v", r)
	}
	if err := checkResult(r); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	if _, err := parseResults([]byte("[]")); err == nil {
		t.Error("empty result list accepted")
	}
	if _, err := parseResults([]byte("alockbench: boom")); err == nil {
		t.Error("non-JSON accepted")
	}

	noOps := r
	noOps.Ops = 0
	if checkResult(noOps) == nil {
		t.Error("a config that did nothing was accepted")
	}
	noOps.Timeouts = 100
	if err := checkResult(noOps); err != nil {
		t.Errorf("a config whose every acquisition timed out was rejected: %v", err)
	}
	noEvents := r
	noEvents.Events = 0
	if checkResult(noEvents) == nil {
		t.Error("Events == 0 accepted")
	}
	leaky := oneResult(t, `{"Ops":1,"Events":1,"Svc":{"TotalOffered":10,"TotalServed":6,"TotalShed":3}}`)
	if checkResult(leaky) == nil {
		t.Error("offered != served + shed accepted")
	}
}

// oneResult parses a single result object the way a child's output is parsed.
func oneResult(t *testing.T, s string) result {
	t.Helper()
	rs, err := parseResults([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
	if s := spread(xs); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	noisy := []float64{80, 125, 90, 118, 100, 84, 121, 95, 110, 100}
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", steady, steady, false, 0.05, "unchanged"},
		{"within bound", steady, scale(steady, 1.03), false, 0.05, "unchanged"},
		{"slower beyond bound", steady, scale(steady, 1.10), false, 0.05, "regressed"},
		{"faster, every run", steady, scale(steady, 0.90), false, 0.05, "improved"},
		{"faster, nine in ten pairs", steady, scale(steady, 0.975), false, 0.05, "improved"},
		{"higher is better, drops", steady, scale(steady, 0.90), true, 0.05, "regressed"},
		{"higher is better, rises", steady, scale(steady, 1.10), true, 0.05, "improved"},
		{"spread wider than bound", noisy, scale(noisy, 1.02), false, 0.05, "unresolved"},
		{"noisy but every run worse", noisy, scale(noisy, 2), false, 0.05, "regressed"},
		{"no data", nil, steady, false, 0.05, "missing"},
	} {
		if got := verdict(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// fakePass is a pass whose children carry one result each, enough for every
// metric to be computed.
func fakePass(t *testing.T) passRun {
	svc := oneResult(t, `{"Ops":5,"Events":500,"Config":{"Algorithm":"alock"},
		"Svc":{"TotalOffered":10,"TotalServed":6,"TotalShed":4,"GoodputOPS":7}}`)
	return passRun{
		wall: time.Second, cpu: 1200 * time.Millisecond, rssKiB: 2048,
		children: []childRun{{name: "x", results: []result{svc}, self: map[string]float64{"sim": 0.5, "runtime": 0.5, eventqKey: 0.25}}},
	}
}

func TestSpecMatchesCode(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Command, []string{"go", "run", "./benchmark"}) || !slices.Equal(s.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", s.Command, s.Paths)
	}
	if s.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != default -seconds %d", s.RunSeconds, defaultSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var inCode []string
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !slices.Equal(workloadNames(s), inCode) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", workloadNames(s), inCode)
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	p := fakePass(t)
	e2e := endToEnd([]passRun{p}, []passRun{p})
	hasSetup := false
	for _, d := range s.EndToEnd {
		name(d.Name)
		if _, ok := e2e[d.Name]; !ok {
			t.Errorf("end-to-end metric %q is not computed", d.Name)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	if len(e2e) != len(s.EndToEnd) {
		t.Errorf("code computes %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(s.EndToEnd))
	}

	layer := perLayer(layerInput{timed: []passRun{p}, profiled: p,
		variantWall: map[string]time.Duration{flatQueue: time.Second, shardedSerial: 2 * time.Second}})
	for _, d := range s.PerLayer {
		name(d.Name)
		if _, ok := layer[d.Name]; !ok {
			t.Errorf("per-layer metric %q is not computed", d.Name)
		}
	}
	if len(layer) != len(s.PerLayer) {
		t.Errorf("code computes %d per-layer metrics, BENCHMARK.json lists %d", len(layer), len(s.PerLayer))
	}
	for _, d := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}

	// Spot checks of the arithmetic on the fake pass.
	var shares float64
	for _, b := range buckets() {
		shares += layer["share."+b]
	}
	for k, want := range map[string]float64{
		"sim.eventq_share": 0.25, "harness.cpu_over_wall": 1.2, "cluster.shed_frac": 0.4,
		"cluster.events_per_served_op": 500.0 / 6, "sim.windowed_speedup_x": 1, "sim.sharded_serial_slowdown_x": 2,
		"cluster.alock_saturation_goodput_ops_s": 7, "trace.overhead_frac": 0,
	} {
		if !near(layer[k], want) {
			t.Errorf("%s = %v, want %v", k, layer[k], want)
		}
	}
	if !near(shares, 1) {
		t.Errorf("shares sum to %v", shares)
	}
	if v := e2e["host_ns_per_event"].Value; !near(v, 1e9/500) {
		t.Errorf("host_ns_per_event = %v", v)
	}
	if v := e2e["peak_rss_mib"].Value; v != 2 {
		t.Errorf("peak_rss_mib = %v", v)
	}
}

// The benchmark binds to the CLI only. An import of the module's own
// packages would tie it to Go APIs that later changes rename and delete.
func TestNoModuleImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v, %d files", err, len(files))
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "alock" || strings.HasPrefix(path, "alock/") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
