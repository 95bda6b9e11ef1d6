package report

import (
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/stats"
)

func TestFigure1Render(t *testing.T) {
	var b strings.Builder
	Figure1(&b, []harness.Fig1Point{
		{Threads: 1, Throughput: 500_000, MaxBacklog: 0},
		{Threads: 8, Throughput: 1_200_000, MaxBacklog: 12_000},
	})
	out := b.String()
	for _, frag := range []string{"Figure 1", "threads", "500.0k", "1.20M", "12.00us"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestFigure1CSV(t *testing.T) {
	var b strings.Builder
	Figure1CSV(&b, []harness.Fig1Point{{Threads: 2, Throughput: 10, MaxBacklog: 3}})
	if !strings.Contains(b.String(), "fig1,2,10.0,3") {
		t.Errorf("csv = %q", b.String())
	}
	if !strings.HasPrefix(b.String(), "figure,threads") {
		t.Error("missing header")
	}
}

func TestFigure4Render(t *testing.T) {
	var b strings.Builder
	Figure4(&b, []harness.Fig4Row{
		{RemoteBudget: 5, LocalBudget: 5, Locks: 100,
			PerLocality: map[int]float64{85: 1, 90: 1, 95: 1}, AvgSpeedup: 1},
		{RemoteBudget: 20, LocalBudget: 5, Locks: 100,
			PerLocality: map[int]float64{85: 1.1, 90: 1.2, 95: 1.3}, AvgSpeedup: 1.2},
	})
	out := b.String()
	for _, frag := range []string{"Figure 4", "1.200x", "85%:1.100"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestFigure5RenderAndCSV(t *testing.T) {
	panels := []harness.Fig5Panel{{
		ID: "a", Nodes: 5, Locks: 20, LocalityPct: 90,
		Series: []harness.Fig5Series{
			{Algorithm: "alock", Threads: []int{1, 2}, Throughput: []float64{1e6, 2e6}},
			{Algorithm: "mcs", Threads: []int{1, 2}, Throughput: []float64{5e5, 4e5}},
		},
	}}
	var b strings.Builder
	Figure5(&b, panels)
	out := b.String()
	for _, frag := range []string{"Figure 5(a)", "alock(ops/s)", "2.00M", "400.0k"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	b.Reset()
	Figure5CSV(&b, panels)
	if !strings.Contains(b.String(), "fig5,a,5,20,90,mcs,2,400000.0") {
		t.Errorf("csv = %q", b.String())
	}
}

// Regression: writeTable measured column widths in bytes, so any
// multi-byte cell (µs units, non-ASCII algorithm names) threw off the
// padding of every following column in its row.
func TestWriteTableRunePadding(t *testing.T) {
	var b strings.Builder
	writeTable(&b, "t",
		[]string{"latency", "mark"},
		[][]string{
			{"5µs", "x"},
			{"500ns", "y"},
		})
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	colOf := func(line, mark string) int {
		return len([]rune(line[:strings.Index(line, mark)]))
	}
	xCol := colOf(lines[3], "x")
	yCol := colOf(lines[4], "y")
	if xCol != yCol {
		t.Errorf("second column misaligned: %q at rune %d vs %q at rune %d\n%s",
			"x", xCol, "y", yCol, b.String())
	}
}

func TestFigureRWRenderAndCSV(t *testing.T) {
	groups := []harness.FigRWGroup{{
		Name: "rw/storm-tails",
		Results: []harness.Result{{
			Config: harness.Config{Algorithm: "rw-queue", Nodes: 16, ThreadsPerNode: 8,
				Locks: 20, LocalityPct: 90, ReadPct: 70},
			Ops: 100, ReadOps: 70, WriteOps: 30, Throughput: 1.5e6,
			ReadLatency:  stats.Summary{Count: 70, P50NS: 40_000, P99NS: 250_000},
			WriteLatency: stats.Summary{Count: 30, P50NS: 45_000, P99NS: 220_000},
		}},
	}}
	var b strings.Builder
	FigureRW(&b, groups)
	out := b.String()
	for _, frag := range []string{"Figure RW: rw/storm-tails", "read p99", "write p99",
		"rw-queue", "250.00us", "220.00us", "1.50M", "read=70%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}

	var csv strings.Builder
	FigureRWCSV(&csv, groups)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	for _, col := range []string{"read_p99_ns", "write_p99_ns", "read_p50_ns", "write_p50_ns", "scenario"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("csv header missing %q: %s", col, lines[0])
		}
	}
	if !strings.Contains(lines[1], "figrw,rw/storm-tails,rw-queue,16,8,20,90,70") ||
		!strings.Contains(lines[1], "250000") || !strings.Contains(lines[1], "220000") {
		t.Errorf("csv row = %s", lines[1])
	}
}

func TestFigure6Render(t *testing.T) {
	panels := []harness.Fig6Panel{{
		ID: "a", Locks: 20, LocalityPct: 100,
		Series: []harness.Fig6Series{{
			Algorithm: "alock",
			Summary:   stats.Summary{Count: 10, MeanNS: 150, P50NS: 100, P90NS: 300, P99NS: 900, P999NS: 1500, MaxNS: 2000},
			CDF:       []stats.Point{{ValueNS: 100, F: 0.5}, {ValueNS: 2000, F: 1}},
		}},
	}}
	var b strings.Builder
	Figure6(&b, panels)
	out := b.String()
	for _, frag := range []string{"Figure 6(a)", "p99.9", "1.50us", "2.00us"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	b.Reset()
	Figure6CSV(&b, panels)
	if !strings.Contains(b.String(), "fig6,a,20,100,alock,100,0.500000") {
		t.Errorf("csv = %q", b.String())
	}
}

func TestTable1RenderVerdicts(t *testing.T) {
	var b strings.Builder
	Table1(&b, []harness.Table1Cell{
		{LocalClass: "Write", RemoteOp: "CAS", Atomic: false}, // paper: No -> MATCH
		{LocalClass: "Read", RemoteOp: "Read", Atomic: false}, // paper: Yes -> MISMATCH
	})
	out := b.String()
	if !strings.Contains(out, "MATCH") || !strings.Contains(out, "MISMATCH") {
		t.Errorf("verdicts missing:\n%s", out)
	}
}

func TestAblationsRender(t *testing.T) {
	var b strings.Builder
	Ablations(&b, []harness.AblationRow{
		{Algorithm: "alock", Throughput: 2e6, P99NS: 1000},
		{Algorithm: "mcs", Throughput: 1e6, P99NS: 9000},
	})
	out := b.String()
	if !strings.Contains(out, "0.50x") {
		t.Errorf("relative column missing:\n%s", out)
	}
}

func TestHeadlinesRender(t *testing.T) {
	var b strings.Builder
	Headlines(&b, harness.HeadlineRatios{HighContentionVsMCS: 12.5})
	out := b.String()
	if !strings.Contains(out, "up to 29x") || !strings.Contains(out, "12.5x") {
		t.Errorf("headline table wrong:\n%s", out)
	}
}

func TestSummaryRender(t *testing.T) {
	var b strings.Builder
	Summary(&b, harness.Result{
		Config: harness.Config{Algorithm: "alock", Nodes: 2, ThreadsPerNode: 3,
			Locks: 10, LocalityPct: 80},
		Ops: 100, SpanNS: 1_000_000, Throughput: 100_000,
		Latency: stats.Summary{Count: 100, MeanNS: 500, P50NS: 400, P99NS: 2000, P999NS: 3000, MaxNS: 4000},
	})
	out := b.String()
	for _, frag := range []string{"alock", "2 nodes x 3 threads", "100.0k ops/s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestSummaryRenderReadWrite(t *testing.T) {
	var b strings.Builder
	Summary(&b, harness.Result{
		Config: harness.Config{Algorithm: "rw-budget", Nodes: 2, ThreadsPerNode: 3,
			Locks: 10, LocalityPct: 80, ReadPct: 95},
		Ops: 100, ReadOps: 95, WriteOps: 5, SpanNS: 1_000_000, Throughput: 100_000,
		Latency:      stats.Summary{Count: 100, MeanNS: 500, P50NS: 400, P99NS: 2000, MaxNS: 4000},
		ReadLatency:  stats.Summary{Count: 95, MeanNS: 300, P50NS: 250, P99NS: 900, MaxNS: 1500},
		WriteLatency: stats.Summary{Count: 5, MeanNS: 4000, P50NS: 3500, P99NS: 9000, MaxNS: 9500},
	})
	out := b.String()
	for _, frag := range []string{"95% reads", "read latency", "write latency", "n=95", "n=5"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestSweepRenderAndCSVReadWrite(t *testing.T) {
	results := []harness.Result{
		{
			Config: harness.Config{Algorithm: "rw-budget", Nodes: 3, ThreadsPerNode: 4,
				Locks: 100, LocalityPct: 90, ReadPct: 70},
			Ops: 70, ReadOps: 50, WriteOps: 20, Throughput: 1000,
			Latency:      stats.Summary{P50NS: 100, P99NS: 1000},
			ReadLatency:  stats.Summary{P99NS: 700},
			WriteLatency: stats.Summary{P99NS: 2000},
		},
	}
	var b strings.Builder
	Sweep(&b, "t", results)
	out := b.String()
	for _, frag := range []string{"read=70%", "read p99", "write p99", "700ns", "2.00us"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	// Exclusive-only sweeps keep the original column set.
	var b2 strings.Builder
	Sweep(&b2, "t", []harness.Result{{Config: harness.Config{Algorithm: "alock"}}})
	if strings.Contains(b2.String(), "read p99") {
		t.Error("exclusive sweep grew read/write columns")
	}

	var csv strings.Builder
	SweepCSV(&csv, "rw/mixed", results)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "read_pct") || !strings.Contains(lines[0], "write_p99_ns") {
		t.Errorf("csv header missing RW columns: %s", lines[0])
	}
	if !strings.Contains(lines[1], "rw/mixed,rw-budget") {
		t.Errorf("csv row wrong: %s", lines[1])
	}
	if hdr, row := len(strings.Split(lines[0], ",")), len(strings.Split(lines[1], ",")); hdr != row {
		t.Errorf("csv header has %d fields, row has %d", hdr, row)
	}
}

func TestUnitFormatting(t *testing.T) {
	if got := ops(999); got != "999" {
		t.Errorf("ops(999) = %q", got)
	}
	if got := ops(1500); got != "1.5k" {
		t.Errorf("ops(1500) = %q", got)
	}
	if got := ns(999); got != "999ns" {
		t.Errorf("ns(999) = %q", got)
	}
	if got := ns(1_500_000); got != "1.50ms" {
		t.Errorf("ns(1.5ms) = %q", got)
	}
}
