package bench

import (
	"encoding/json"
	"fmt"
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
// executor width and sanity-checks the metrics that BENCH_*.json reports:
// every row processes the identical schedule (same event count — the
// bit-identity guarantee shows up even in the bench layer), rates are
// populated and labelled, and the serial executor's steady-state allocation
// rate is near zero.
func TestMeasureEngineCase(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0] // engine/work-loop
	serial, err := c.Measure(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Events == 0 || serial.EventsPerSec <= 0 || serial.NSPerEvent <= 0 || serial.Engine != EngineSerial {
		t.Fatalf("serial measurement not populated: %+v", serial)
	}
	if serial.AllocsPerEvent > 0.01 {
		t.Errorf("serial executor allocates %.4f/event in steady state, want ~0", serial.AllocsPerEvent)
	}
	for _, width := range []int{1, 2} {
		windowed, err := c.Measure(width, 1)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Events != windowed.Events || windowed.Engine != fmt.Sprintf("windowed-%d", width) {
			t.Fatalf("%s: %d events, serial %d", windowed.Engine, windowed.Events, serial.Events)
		}
		// The windowed rows carry the executor's telemetry; the serial row
		// has none, and its JSON does not grow.
		if windowed.Windows == 0 || windowed.EventsPerWindow <= 0 {
			t.Errorf("%s row has no window telemetry: %+v", windowed.Engine, windowed)
		}
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

// TestShardedVariantOnlyWhereWindowed: a row is labelled by the executor it
// reaches. Raw engine cases run serial, on one windowed worker and on the
// wide width; harness cases cannot reach the serial executor — a closed-loop
// config with TargetOps runs windowed until its stop guard hands over, the
// open-loop service runs windowed throughout — except wait-die ones, which
// reach nothing else and get one serial row. A one-worker wide width adds no
// row.
func TestShardedVariantOnlyWhereWindowed(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2][]int{ // widths at the default wide width, and with -engine-shards 1
		"engine/contended-rmw":            {{0, 1, 2}, {0, 1}},
		"svc/open-loop@tiny":              {{1, 2}, {1}},
		"paper/fig5-high-contention@tiny": {{1, 2}, {1}},
		"deadlock/dining@tiny":            {{0}, {0}},
	}
	for _, c := range cases {
		if w, ok := want[c.Name]; ok {
			if got := [2][]int{c.widths(0), c.widths(1)}; fmt.Sprint(got) != fmt.Sprint(w) {
				t.Errorf("%s: widths %v, want %v", c.Name, got, w)
			}
		}
		delete(want, c.Name)
	}
	if len(want) > 0 {
		t.Errorf("cases missing from the tiny suite: %v", want)
	}
	for _, c := range cases {
		if c.build != nil {
			continue
		}
		for _, width := range c.widths(0) {
			cfg := c.cfg
			cfg.EngineShards = width
			if (c.label(width) == EngineSerial) == cfg.RunsWindowed() {
				t.Errorf("%s at width %d: labelled %s, but RunsWindowed = %v", c.Name, width, c.label(width), cfg.RunsWindowed())
			}
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
		m, err := c.Measure(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Events == 0 || m.Ops == 0 || m.Engine != "windowed-1" {
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
