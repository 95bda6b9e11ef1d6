package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// TestMeasureEngineCase runs the scheduler-churn microbenchmark once per
// executor and sanity-checks the metrics that BENCH_*.json reports: both
// variants process the identical schedule (same event count — the
// bit-identity guarantee shows up even in the bench layer), rates are
// populated, and the serial executor's steady-state allocation rate is
// near zero.
func TestMeasureEngineCase(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0] // engine/work-loop
	serial, err := c.Measure(EngineSerial, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := c.Measure(EngineWindowed, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Events == 0 || serial.EventsPerSec <= 0 || serial.NSPerEvent <= 0 {
		t.Fatalf("serial measurement not populated: %+v", serial)
	}
	if serial.Events != windowed.Events {
		t.Fatalf("executors diverged: serial %d events, windowed %d", serial.Events, windowed.Events)
	}
	if serial.AllocsPerEvent > 0.01 {
		t.Errorf("serial executor allocates %.4f/event in steady state, want ~0", serial.AllocsPerEvent)
	}
	// The windowed row carries the executor's telemetry; the serial row has
	// none, and its JSON does not grow.
	if windowed.Windows == 0 || windowed.EventsPerWindow <= 0 {
		t.Errorf("windowed row has no window telemetry: %+v", windowed)
	}
	if serial.Windows != 0 || serial.EventsPerWindow != 0 || serial.Parks != 0 {
		t.Errorf("serial row carries window telemetry: %+v", serial)
	}
	if js, _ := json.Marshal(serial); strings.Contains(string(js), "window") || strings.Contains(string(js), "parks") {
		t.Errorf("serial row's JSON names the window fields: %s", js)
	}
}

// TestRunRejectsBadInput: the report header records reps and the windowed
// width as given, so values Measure would have to reinterpret are errors.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run("tiny", "x", 0, 0, nil); err == nil {
		t.Error("reps 0 accepted")
	}
	if _, err := Run("tiny", "x", 1, -2, nil); err == nil {
		t.Error("negative windowed workers accepted")
	}
}

// TestShardedVariantOnlyWhereWindowed: the windowed label is reserved for
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
		if w, ok := want[c.Name]; ok && c.reachesWindowed(0) != w {
			t.Errorf("%s: reachesWindowed = %v, want %v", c.Name, !w, w)
		}
		delete(want, c.Name)
	}
	if len(want) > 0 {
		t.Errorf("cases missing from the tiny suite: %v", want)
	}
	for _, c := range cases {
		if c.reachesWindowed(1) {
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
		m, err := c.Measure(EngineSerial, 1, 0)
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
	rep.Cases = append(rep.Cases, Measurement{Name: "x", Engine: EngineSerial, Events: 10})
	rep.Comparisons = append(rep.Comparisons, Comparison{Name: "x", WindowedSpeedup: 1.5})
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Cases[0].Name != "x" || back.Comparisons[0].WindowedSpeedup != 1.5 {
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
