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
		if !strings.HasPrefix(c.Name, "engine/") || c.build == nil || c.horizon <= 0 {
			t.Errorf("case %q is not an engine/* case with a builder and a horizon", c.Name)
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
// rate, in mallocs and in bytes, is near zero.
func TestMeasureEngineCase(t *testing.T) {
	cases, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0] // engine/work-loop
	serial := c.Measure(0, 1)
	if serial.Events == 0 || serial.EventsPerSec <= 0 || serial.NSPerEvent <= 0 || serial.Engine != EngineSerial {
		t.Fatalf("serial measurement not populated: %+v", serial)
	}
	if serial.AllocsPerEvent > 0.01 || serial.BytesPerEvent > 1 {
		t.Errorf("serial executor allocates %.4f times, %.2f B per event in steady state, want ~0",
			serial.AllocsPerEvent, serial.BytesPerEvent)
	}
	for _, width := range []int{1, 2} {
		windowed := c.Measure(width, 1)
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

// TestShardedVariantOnlyWhereWindowed: Run measures every case on the serial
// executor, on one windowed worker and on the wide width, and labels each row
// by the executor it reaches. A one-worker wide width adds no row.
func TestShardedVariantOnlyWhereWindowed(t *testing.T) {
	want := [2][]int{{0, 1, 2}, {0, 1}} // at the default wide width, and with -engine-shards 1
	if got := [2][]int{widths(0), widths(1)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("widths %v, want %v", got, want)
	}
	for _, width := range widths(4) {
		want := fmt.Sprintf("windowed-%d", width)
		if width == 0 {
			want = EngineSerial
		}
		if got := label(width); got != want {
			t.Errorf("width %d labelled %s, want %s", width, got, want)
		}
	}
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
