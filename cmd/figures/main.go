// Command figures regenerates every table and figure of the paper's
// evaluation (Section 6) on the deterministic simulator:
//
//	Table 1   — local/remote atomicity matrix
//	Figure 1  — loopback congestion of an RDMA spinlock on one node
//	Figure 4  — cohort budget study
//	Figure 5  — throughput grid (nodes x contention x locality x threads)
//	Figure 6  — latency CDF grid (10 nodes, 8 threads/node)
//	Figure RW — reader/writer, failure, transaction and lock-service
//	            tails over the rw/*, lease/*, fail/*, multi/*,
//	            deadlock/* and svc/* scenario families (beyond the
//	            paper)
//	headlines — the paper's headline ratios, from the Figure 5 runs
//	qp        — QP context-cache thrashing sweep (beyond the paper)
//	tla       — exhaustive model check of internal/core's ALock
//	ablations — budget / cohort-split ablations (beyond the paper)
//
// Every figure is a registered scenario (or several) rendered by
// internal/report; each selected scenario runs once, fanned out across the
// host's cores by internal/sweep. Results are bit-identical at any
// -parallel setting (each run is an independent seeded simulation).
//
// Usage:
//
//	figures                         # everything, full scale
//	figures -quick                  # everything, reduced scale
//	figures -only fig5              # one artifact
//	figures -only figrw -csv rw.csv # the reader/writer figure and its CSV
//	figures -parallel 1             # serial execution (same results, slower)
//	figures -csv out.csv            # also dump CSV series for replotting
//	figures -list-scenarios         # named scenarios from the registry
//	figures -scenario hotkey-zipf   # run one named scenario instead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"alock/internal/check"
	"alock/internal/harness"
	"alock/internal/report"
	"alock/internal/scenario"
	"alock/internal/sweep"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced sweep (same structure, fewer points)")
		only      = flag.String("only", "", "comma-separated subset: table1,fig1,fig4,fig5,fig6,figrw,tla,ablations,headlines,qp")
		csvPath   = flag.String("csv", "", "also write CSV series to this file")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = all cores)")
		scenName  = flag.String("scenario", "", "run a named scenario from the registry instead of the figures")
		listScens = flag.Bool("list-scenarios", false, "list registered scenarios and exit")
		progress  = flag.Bool("progress", false, "print per-run completion progress to stderr")
		engShards = flag.Int("engine-shards", 0, "per-run workers of the windowed executor (0 = auto: the calling goroutine alone until the windows pay for a second worker, then as many as GOMAXPROCS allows; 1 = the calling goroutine alone; >1 = parallel windows; wait-die configs run serial, and a TargetOps run finishes its last window's worth of ops serially)")
	)
	flag.Parse()

	runner := sweep.Runner{Parallel: *parallel}
	if *progress {
		runner.OnResult = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] config %d done\n", p.Done, p.Total, p.Index)
		}
	}
	// run stamps the engine selection onto every config it executes;
	// results are bit-identical at any setting, only the engine's internal
	// concurrency changes.
	run := func(cfgs []harness.Config) ([]harness.Result, error) {
		return runner.Run(sweep.WithEngineShards(cfgs, *engShards, os.Stderr))
	}
	out := os.Stdout

	if *listScens {
		scenario.List(out)
		return
	}

	var csv io.Writer
	closeCSV := func() error { return nil }
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		csv, closeCSV = f, f.Close
	}

	scale := harness.Scale{Quick: *quick, Seed: *seed}
	var err error
	if *scenName != "" {
		err = runScenario(out, csv, *scenName, scale, run)
	} else {
		want := map[string]bool{}
		if *only != "" {
			for _, k := range strings.Split(*only, ",") {
				want[strings.TrimSpace(k)] = true
			}
		}
		sel := func(k string) bool { return len(want) == 0 || want[k] }
		err = render(out, csv, artifacts(*quick), sel, scale, run)
		if err == nil && sel("tla") {
			err = modelCheck(out, *quick)
		}
	}
	if cerr := closeCSV(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// runScenario runs one named scenario and renders it as a sweep table (and
// CSV, when csv is non-nil).
func runScenario(out, csv io.Writer, name string, s harness.Scale,
	run func([]harness.Config) ([]harness.Result, error)) error {
	sc, ok := scenario.Get(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list-scenarios)", name)
	}
	cfgs := sc.Configs(s)
	fmt.Fprintf(out, "running scenario %s (%d configs)...\n", sc.Name, len(cfgs))
	results, err := run(cfgs)
	if err != nil {
		return err
	}
	report.Sweep(out, fmt.Sprintf("Scenario %s: %s", sc.Name, sc.Description), results)
	if csv != nil {
		report.SweepCSV(csv, sc.Name, results)
	}
	return nil
}

// artifact is one entry of the figure table: its -only key, the line
// printed before its scenarios run, the registered scenarios it renders,
// and its text and (optional) CSV renderers, which get one group per
// scenario in the listed order. table1 runs no scenario; tla, the model
// check, is not in the table: main runs it last.
type artifact struct {
	key       string
	progress  string
	scenarios []string
	text, csv func(io.Writer, []report.Group)
}

// artifacts is the figure table, in output order.
func artifacts(quick bool) []artifact {
	fig5 := []string{
		"paper/fig5-high-contention", "paper/fig5-medium-contention",
		"paper/fig5-low-contention", "paper/fig5-full-locality",
	}
	var figRW []string
	for _, sc := range scenario.ByPrefix("rw/", "lease/", "fail/", "multi/", "deadlock/", "svc/") {
		figRW = append(figRW, sc.Name)
	}
	return []artifact{
		{key: "table1", text: func(w io.Writer, _ []report.Group) {
			fmt.Fprintln(w, "running Table 1 atomicity probes...")
			report.Table1(w, harness.Table1())
		}},
		{"fig1", "\nrunning Figure 1 (loopback congestion)...", []string{"paper/fig1-loopback"},
			first(report.Figure1), first(report.Figure1CSV)},
		{"fig4", "\nrunning Figure 4 (budget study)...", []string{"paper/fig4-budget"},
			first(report.Figure4), nil},
		{"fig5", "\nrunning Figure 5 (throughput grid)... this is the big sweep",
			[]string{fig5[0], fig5[1], fig5[2], fig5[3], "paper/fig5-locality"},
			func(w io.Writer, gs []report.Group) {
				report.Figure5(w, concat(gs[:4]))
				report.Figure5Locality(w, gs[4].Results)
			},
			func(w io.Writer, gs []report.Group) { report.Figure5CSV(w, concat(gs[:4])) }},
		{"fig6", "\nrunning Figure 6 (latency CDFs)...", []string{"paper/fig6-latency"},
			first(report.Figure6), first(report.Figure6CSV)},
		{"figrw", "\nrunning Figure RW (reader/writer and failure tails)...", figRW,
			report.FigureRW, report.FigureRWCSV},
		// The Figure 5 entry above runs these whenever headlines is selected.
		{"headlines", "", fig5,
			func(w io.Writer, gs []report.Group) { report.Headlines(w, concat(gs)) }, nil},
		{"qp", "\nrunning QP-thrashing sweep...", []string{"qp-thrashing"},
			first(report.QPThrashing), nil},
		{"ablations", "\nrunning ablations...", []string{"ablations"},
			first(report.Ablations), nil},
	}
}

// first adapts a one-scenario renderer to the artifact shape.
func first(f func(io.Writer, []harness.Result)) func(io.Writer, []report.Group) {
	return func(w io.Writer, gs []report.Group) { f(w, gs[0].Results) }
}

// concat joins the groups' results in order.
func concat(gs []report.Group) []harness.Result {
	var rs []harness.Result
	for _, g := range gs {
		rs = append(rs, g.Results...)
	}
	return rs
}

// render writes every selected artifact, in table order, to out (and its
// CSV series to csv when non-nil). A scenario that some selected artifact
// lists runs once, in one sweep with the others of the first artifact that
// lists it, after that artifact's progress line: fig5 and headlines share
// their runs, and -only headlines still prints the Figure 5 line.
func render(out, csv io.Writer, arts []artifact, sel func(string) bool, s harness.Scale,
	run func([]harness.Config) ([]harness.Result, error)) error {
	want := map[string]bool{}
	for _, a := range arts {
		if sel(a.key) {
			for _, name := range a.scenarios {
				want[name] = true
			}
		}
	}
	results := map[string][]harness.Result{}
	for _, a := range arts {
		var todo []string
		var sizes []int
		var cfgs []harness.Config
		for _, name := range a.scenarios {
			if _, done := results[name]; done || !want[name] {
				continue
			}
			sc, ok := scenario.Get(name)
			if !ok {
				return fmt.Errorf("figure %s: unknown scenario %q", a.key, name)
			}
			c := sc.Configs(s)
			todo, sizes, cfgs = append(todo, name), append(sizes, len(c)), append(cfgs, c...)
		}
		if len(todo) > 0 {
			fmt.Fprintln(out, a.progress)
			rs, err := run(cfgs)
			if err != nil {
				return err
			}
			for i, name := range todo {
				results[name], rs = rs[:sizes[i]], rs[sizes[i]:]
			}
		}
		if !sel(a.key) {
			continue
		}
		gs := make([]report.Group, len(a.scenarios))
		for i, name := range a.scenarios {
			gs[i] = report.Group{Name: name, Results: results[name]}
		}
		a.text(out, gs)
		if csv != nil && a.csv != nil {
			a.csv(csv, gs)
		}
	}
	return nil
}

// modelCheck explores internal/core's ALock under every interleaving (tla)
// and fails on the first checker error or violated property.
func modelCheck(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "\nmodel-checking internal/core's ALock under every interleaving...")
	configs := []check.Config{
		{Procs: 2, Budget: 1}, {Procs: 2, Budget: 2}, {Procs: 3, Budget: 1},
	}
	if !quick {
		configs = append(configs, check.Config{Procs: 3, Budget: 2})
	}
	for _, cfg := range configs {
		res, err := check.Run(cfg)
		if err != nil {
			return fmt.Errorf("tla: procs=%d budget=%d: %w", cfg.Procs, cfg.Budget, err)
		}
		if !res.OK() {
			return fmt.Errorf("tla: procs=%d budget=%d: VIOLATION: %v %s%s", cfg.Procs, cfg.Budget, res,
				res.MutexWitness, res.DeadlockWitness)
		}
		fmt.Fprintf(w, "  procs=%d budget=%d: %d states, %d transitions — OK (mutual exclusion, deadlock-freedom, starvation-freedom)\n",
			cfg.Procs, cfg.Budget, res.States, res.Transitions)
	}
	return nil
}
