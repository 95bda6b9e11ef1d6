package harness_test

import (
	"strconv"
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/report"
	"alock/internal/scenario"
	"alock/internal/sweep"
)

// The figure tests run each figure's registered scenarios through the
// sweep runner and check the paper's shapes on the results, or on the
// table internal/report renders from them — the path cmd/figures takes.

func runScenarios(t *testing.T, s harness.Scale, names ...string) []harness.Result {
	t.Helper()
	var cfgs []harness.Config
	for _, name := range names {
		sc, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		cfgs = append(cfgs, sc.Configs(s)...)
	}
	rs, err := sweep.Runner{}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

var fig5Scenarios = []string{
	"paper/fig5-high-contention", "paper/fig5-medium-contention",
	"paper/fig5-low-contention", "paper/fig5-full-locality",
}

// tableRows returns the whitespace-split body rows of every table in a
// rendered report (the lines after each dashed separator).
func tableRows(out string) [][]string {
	var rows [][]string
	body := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "---"):
			body = true
		case line == "" || strings.HasPrefix(line, "=="):
			body = false
		case body:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

// fig4Row is one rendered Figure 4 row: remote budget, per-locality
// speedups and their mean.
type fig4Row struct {
	remoteBudget string
	perLocality  []float64
	avg          float64
}

func renderFigure4(t *testing.T, rs []harness.Result) []fig4Row {
	t.Helper()
	var b strings.Builder
	report.Figure4(&b, rs)
	var rows []fig4Row
	for _, f := range tableRows(b.String()) {
		row := fig4Row{remoteBudget: f[1]}
		for _, cell := range f[3 : len(f)-1] {
			_, sp, _ := strings.Cut(cell, ":")
			v, err := strconv.ParseFloat(sp, 64)
			if err != nil {
				t.Fatalf("per-locality cell %q: %v", cell, err)
			}
			row.perLocality = append(row.perLocality, v)
		}
		avg, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "x"), 64)
		if err != nil {
			t.Fatalf("avg cell %q: %v", f[len(f)-1], err)
		}
		row.avg = avg
		rows = append(rows, row)
	}
	return rows
}

// --- Figure shapes (quick scale) ---

func TestFigure1Shape(t *testing.T) {
	pts := runScenarios(t, harness.Scale{Quick: true}, "paper/fig1-loopback")
	if len(pts) < 4 {
		t.Fatalf("too few points: %d", len(pts))
	}
	peak, peakIdx := 0.0, 0
	for i, p := range pts {
		if p.Throughput > peak {
			peak, peakIdx = p.Throughput, i
		}
	}
	last := pts[len(pts)-1]
	if peakIdx == len(pts)-1 {
		t.Fatal("Figure 1: throughput monotonically increasing — no loopback congestion")
	}
	if th := pts[peakIdx].Config.ThreadsPerNode; th > 4 {
		t.Errorf("Figure 1: peak at %d threads, paper peaks at a few", th)
	}
	if last.Throughput > 0.7*peak {
		t.Errorf("Figure 1: decline too shallow (peak %.0f, 16 threads %.0f)", peak, last.Throughput)
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := renderFigure4(t, runScenarios(t, harness.Scale{Quick: true}, "paper/fig4-budget"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.remoteBudget == "5" && r.avg != 1.0 {
			t.Fatalf("baseline row wrong: %+v", r)
		}
		// Raising the remote budget should not hurt (paper: up to +23%).
		if r.remoteBudget == "20" && r.avg < 0.95 {
			t.Errorf("remote budget 20 slower than 5: %+v", r)
		}
	}
}

func TestHeadlinesComputation(t *testing.T) {
	point := func(loc int, algo string, threads int, tput float64) harness.Result {
		return harness.Result{
			Config: harness.Config{Algorithm: algo, Nodes: 5, ThreadsPerNode: threads,
				Locks: 20, LocalityPct: loc},
			Throughput: tput,
		}
	}
	fig5 := []harness.Result{
		point(90, "alock", 2, 10), point(90, "alock", 8, 29),
		point(90, "mcs", 2, 5), point(90, "mcs", 8, 1),
		point(90, "spinlock", 2, 2), point(90, "spinlock", 8, 2),
		point(100, "alock", 2, 24), point(100, "mcs", 2, 1), point(100, "spinlock", 2, 2),
	}
	var b strings.Builder
	report.Headlines(&b, fig5)
	measured := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if claim, rest, ok := strings.Cut(line, "  "); ok {
			f := strings.Fields(rest)
			measured[claim] = f[len(f)-1]
		}
	}
	for claim, want := range map[string]string{
		"high contention, ALock vs MCS":      "29.0x",
		"high contention, ALock vs spinlock": "14.5x",
		"100% locality, ALock vs MCS":        "24.0x",
		"100% locality, ALock vs spinlock":   "12.0x",
		"low contention, ALock vs MCS":       "0.0x",
	} {
		if got := measured[claim]; got != want {
			t.Errorf("%s = %q, want %q\n%s", claim, got, want, b.String())
		}
	}
}

// --- Scenario structure tests (TestTiny scale) ---

func TestFigure5DriverStructure(t *testing.T) {
	rs := runScenarios(t, harness.Scale{TestTiny: true}, fig5Scenarios...)
	type panel struct{ nodes, locks, loc int }
	algos := map[panel]map[string]bool{}
	var order []panel
	for _, r := range rs {
		p := panel{r.Config.Nodes, r.Config.Locks, r.Config.LocalityPct}
		if algos[p] == nil {
			algos[p] = map[string]bool{}
			order = append(order, p)
		}
		algos[p][r.Config.Algorithm] = true
		if r.Throughput <= 0 {
			t.Errorf("panel %+v/%s nonpositive throughput", p, r.Config.Algorithm)
		}
	}
	if len(order) != 8 { // 2 node counts x 4 shapes
		t.Fatalf("panels = %d", len(order))
	}
	for _, p := range order {
		if len(algos[p]) != 3 {
			t.Fatalf("panel %+v has %d series", p, len(algos[p]))
		}
	}
	var b strings.Builder
	report.Figure5(&b, rs)
	seenIDs := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if id, ok := strings.CutPrefix(line, "== Figure 5("); ok {
			id = id[:strings.Index(id, ")")]
			if seenIDs[id] {
				t.Errorf("duplicate panel id %q", id)
			}
			seenIDs[id] = true
		}
	}
	if len(seenIDs) != 8 {
		t.Errorf("rendered %d panels, want 8", len(seenIDs))
	}
}

func TestFigure6DriverStructure(t *testing.T) {
	rs := runScenarios(t, harness.Scale{TestTiny: true}, "paper/fig6-latency")
	if len(rs) != 12*3 { // 4 localities x 3 contentions, 3 algorithms each
		t.Fatalf("runs = %d", len(rs))
	}
	for _, r := range rs {
		c := r.Config
		if r.Latency.Count == 0 {
			t.Errorf("%d%%/%d locks/%s empty latency summary", c.LocalityPct, c.Locks, c.Algorithm)
		}
		if len(r.CDF) == 0 {
			t.Errorf("%d%%/%d locks/%s empty CDF", c.LocalityPct, c.Locks, c.Algorithm)
		}
	}
	// Row/column layout: first panel is 100% locality, 20 locks.
	if c := rs[0].Config; c.LocalityPct != 100 || c.Locks != 20 {
		t.Errorf("panel (a) = %d%%/%d locks", c.LocalityPct, c.Locks)
	}
	if c := rs[len(rs)-1].Config; c.LocalityPct != 85 || c.Locks != 1000 {
		t.Errorf("panel (l) = %d%%/%d locks", c.LocalityPct, c.Locks)
	}
	var b strings.Builder
	report.Figure6(&b, rs)
	if n := strings.Count(b.String(), "== Figure 6("); n != 12 {
		t.Errorf("rendered %d panels, want 12", n)
	}
}

func TestFigure5LocalitySweepDriver(t *testing.T) {
	pts := runScenarios(t, harness.Scale{TestTiny: true}, "paper/fig5-locality")
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Throughput must increase with locality (the Section 6.2 claim).
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput <= pts[i-1].Throughput {
			t.Errorf("throughput not increasing with locality at %d%%: %.0f after %.0f",
				pts[i].Config.LocalityPct, pts[i].Throughput, pts[i-1].Throughput)
		}
	}
}

func TestAblationsDriver(t *testing.T) {
	rows := runScenarios(t, harness.Scale{TestTiny: true}, "ablations")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Config.Algorithm] = r.Throughput
	}
	// The asymmetric cohort split must beat the symmetric ablation.
	if byName["alock"] <= byName["alock-symmetric"] {
		t.Errorf("asymmetric (%f) not faster than symmetric (%f)",
			byName["alock"], byName["alock-symmetric"])
	}
}

func TestQPThrashingDriver(t *testing.T) {
	rows := runScenarios(t, harness.Scale{TestTiny: true}, "qp-thrashing")
	if len(rows) != 3 { // 1 cap x 3 algorithms
		t.Fatalf("rows = %d", len(rows))
	}
	qps := map[string]int64{}
	for _, r := range rows {
		qps[r.Config.Algorithm] = r.NIC.DistinctQPs
	}
	// The competitors maintain loopback QPs; ALock does not — its distinct
	// QP working set must be strictly smaller.
	if qps["alock"] >= qps["spinlock"] {
		t.Errorf("alock QPs (%d) not fewer than spinlock's (%d)", qps["alock"], qps["spinlock"])
	}
}

func TestFigureRWDriverStructure(t *testing.T) {
	mk := func(algo string, readPct int) harness.Config {
		return harness.Config{Algorithm: algo, Nodes: 3, ThreadsPerNode: 4, Locks: 30,
			LocalityPct: 90, WarmupNS: 100_000, MeasureNS: 800_000, TargetOps: 8_000,
			Seed: 1, ReadPct: readPct}
	}
	cfgs := []harness.Config{mk("rw-queue", 70), mk("rw-budget", 70), mk("alock", 0)}
	rs, err := sweep.Runner{}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	groups := []report.Group{{Name: "rw/a", Results: rs[:2]}, {Name: "fail/b", Results: rs[2:]}}
	for _, g := range groups {
		for i, r := range g.Results {
			if r.Ops == 0 {
				t.Errorf("%s run %d recorded nothing", g.Name, i)
			}
		}
	}
	for i, r := range rs {
		if r.Config.Algorithm != cfgs[i].Algorithm {
			t.Errorf("result %d is %s, config %s: order broken", i, r.Config.Algorithm, cfgs[i].Algorithm)
		}
	}
	// The RW group must record both classes; the exclusive group only
	// writes.
	for _, r := range groups[0].Results {
		if r.ReadOps == 0 || r.WriteOps == 0 {
			t.Errorf("rw/a %s: class starved (reads=%d writes=%d)",
				r.Config.Algorithm, r.ReadOps, r.WriteOps)
		}
	}
	if r := groups[1].Results[0]; r.ReadOps != 0 || r.WriteOps != r.Ops {
		t.Errorf("exclusive group split reads=%d writes=%d ops=%d", r.ReadOps, r.WriteOps, r.Ops)
	}
	var b strings.Builder
	report.FigureRW(&b, groups)
	a, f := strings.Index(b.String(), "== Figure RW: rw/a =="), strings.Index(b.String(), "== Figure RW: fail/b ==")
	if a < 0 || f < a {
		t.Errorf("groups misassembled:\n%s", b.String())
	}
}

func TestFigure4DriverTiny(t *testing.T) {
	rows := renderFigure4(t, runScenarios(t, harness.Scale{TestTiny: true}, "paper/fig4-budget"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.perLocality) != 3 {
			t.Fatalf("row missing localities: %+v", r)
		}
		if r.avg <= 0 {
			t.Fatalf("nonpositive speedup: %+v", r)
		}
	}
}
