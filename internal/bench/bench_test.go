package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSuiteExpands(t *testing.T) {
	tiny, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Suite("paper")
	if err != nil {
		t.Fatal(err)
	}
	all, err := Suite("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny) == 0 || len(paper) == 0 {
		t.Fatalf("empty suites: tiny=%d paper=%d", len(tiny), len(paper))
	}
	if len(all) != len(tiny)+len(paper) {
		t.Fatalf("all = %d, want tiny+paper = %d", len(all), len(tiny)+len(paper))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if c.build == nil && c.cfg.Algorithm == "" {
			t.Errorf("case %q drives neither an engine nor a scenario config", c.Name)
		}
	}
	if _, err := Suite("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
}

// TestMeasureEngineCase runs the event-dense microbenchmark once per
// engine and sanity-checks the metrics that BENCH_*.json reports: both
// variants process the identical schedule (same event count — the
// bit-identity guarantee shows up even in the bench layer), rates are
// populated, and the typed engine's steady-state allocation rate is
// near zero.
func TestMeasureEngineCase(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0] // engine/work-loop
	typed, err := c.Measure(EngineTyped, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := c.Measure(EngineOracle, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := c.Measure(EngineSharded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if typed.Events == 0 || typed.EventsPerSec <= 0 || typed.NSPerEvent <= 0 {
		t.Fatalf("typed measurement not populated: %+v", typed)
	}
	if typed.Events != oracle.Events {
		t.Fatalf("engines diverged: typed %d events, oracle %d", typed.Events, oracle.Events)
	}
	if typed.Events != sharded.Events {
		t.Fatalf("engines diverged: typed %d events, sharded %d", typed.Events, sharded.Events)
	}
	if typed.AllocsPerEvent > 0.01 {
		t.Errorf("typed engine allocates %.4f/event in steady state, want ~0", typed.AllocsPerEvent)
	}
}

// TestShardedVariantOnlyWhereWindowed: the sharded label is reserved for
// runs that execute parallel windows. Raw engine cases and the open-loop
// service do; a closed-loop scenario config with TargetOps runs the serial
// executor at any width, and one worker is the serial executor everywhere.
func TestShardedVariantOnlyWhereWindowed(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"engine/contended-rmw":            true,
		"svc/open-loop@tiny":              true,
		"paper/fig5-high-contention@tiny": false,
	}
	for _, c := range cases {
		if w, ok := want[c.Name]; ok && c.reachesWindowed() != w {
			t.Errorf("%s: reachesWindowed = %v, want %v", c.Name, !w, w)
		}
		delete(want, c.Name)
	}
	if len(want) > 0 {
		t.Errorf("cases missing from the tiny suite: %v", want)
	}
	defer func(n int) { shardedWorkers = n }(shardedWorkers)
	SetShardedWorkers(1)
	for _, c := range cases {
		if c.reachesWindowed() {
			t.Errorf("%s: reaches the windowed executor with one worker", c.Name)
		}
	}
}

// TestMeasureScenarioCase runs one harness-backed case end to end.
func TestMeasureScenarioCase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.build != nil {
			continue
		}
		m, err := c.Measure(EngineTyped, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Events == 0 || m.Ops == 0 {
			t.Fatalf("%s: empty measurement %+v", c.Name, m)
		}
		return // one scenario case keeps the test cheap
	}
	t.Fatal("tiny suite has no scenario case")
}

func TestReportMarshals(t *testing.T) {
	rep := &Report{Schema: Schema, ID: "BENCH_TEST", Suite: "tiny", Reps: 1, Host: hostInfo()}
	rep.Cases = append(rep.Cases, Measurement{Name: "x", Engine: "typed", Events: 10})
	rep.Comparisons = append(rep.Comparisons, Comparison{Name: "x", Speedup: 1.5})
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Cases[0].Name != "x" || back.Comparisons[0].Speedup != 1.5 {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	s := 0
	for i := 0; i < 1_000_000; i++ {
		s += i
	}
	_ = s
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Both paths empty: a no-op stop.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
