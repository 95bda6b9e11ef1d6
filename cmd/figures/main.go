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
//	tla       — exhaustive model check of the Appendix A specification
//	ablations — budget / cohort-split ablations (beyond the paper)
//
// Every sweep is enumerated up front and fanned out across the host's
// cores by internal/sweep; results are bit-identical at any -parallel
// setting (each run is an independent seeded simulation).
//
// Usage:
//
//	figures                         # everything, full scale
//	figures -quick                  # everything, reduced scale
//	figures -only fig5              # one artifact
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
		engShards = flag.Int("engine-shards", 0, "per-run workers of the windowed executor (0 or 1 = the calling goroutine alone, >1 = parallel windows; wait-die configs run serial, and a TargetOps run finishes its last window's worth of ops serially)")
	)
	flag.Parse()

	runner := sweep.Runner{Parallel: *parallel}
	if *progress {
		runner.OnResult = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] config %d done\n", p.Done, p.Total, p.Index)
		}
	}
	// withShards stamps the engine selection onto every config a driver
	// enumerates; results are bit-identical at any setting, only the
	// engine's internal concurrency changes.
	withShards := func(cfgs []harness.Config) []harness.Config {
		return sweep.WithEngineShards(cfgs, *engShards, os.Stderr)
	}
	runMany := runner.RunMany()
	run := func(cfgs []harness.Config) []harness.Result {
		return runMany(withShards(cfgs))
	}
	out := os.Stdout

	if *listScens {
		listScenarios(out)
		return
	}

	var csv io.WriteCloser
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		csv = f
		defer f.Close()
	}

	scale := harness.Scale{Quick: *quick, Seed: *seed}

	if *scenName != "" {
		sc, ok := scenario.Get(*scenName)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown scenario %q (try -list-scenarios)\n", *scenName)
			os.Exit(1)
		}
		cfgs := withShards(sc.Configs(scale))
		fmt.Fprintf(out, "running scenario %s (%d configs)...\n", sc.Name, len(cfgs))
		results, err := runner.Run(cfgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		report.Sweep(out, fmt.Sprintf("Scenario %s: %s", sc.Name, sc.Description), results)
		if csv != nil {
			report.SweepCSV(csv, sc.Name, results)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	if sel("table1") {
		fmt.Fprintln(out, "running Table 1 atomicity probes...")
		report.Table1(out, harness.Table1())
	}
	if sel("fig1") {
		fmt.Fprintln(out, "\nrunning Figure 1 (loopback congestion)...")
		pts := harness.Figure1(scale, run)
		report.Figure1(out, pts)
		if csv != nil {
			report.Figure1CSV(csv, pts)
		}
	}
	if sel("fig4") {
		fmt.Fprintln(out, "\nrunning Figure 4 (budget study)...")
		report.Figure4(out, harness.Figure4(scale, run))
	}
	var fig5 []harness.Fig5Panel
	if sel("fig5") || sel("headlines") {
		fmt.Fprintln(out, "\nrunning Figure 5 (throughput grid)... this is the big sweep")
		fig5 = harness.Figure5(scale, run)
	}
	if sel("fig5") {
		report.Figure5(out, fig5)
		report.Figure5Locality(out, harness.Figure5LocalitySweep(scale, run))
		if csv != nil {
			report.Figure5CSV(csv, fig5)
		}
	}
	if sel("fig6") {
		fmt.Fprintln(out, "\nrunning Figure 6 (latency CDFs)...")
		panels := harness.Figure6(scale, run)
		report.Figure6(out, panels)
		if csv != nil {
			report.Figure6CSV(csv, panels)
		}
	}
	if sel("figrw") {
		fmt.Fprintln(out, "\nrunning Figure RW (reader/writer and failure tails)...")
		groups := harness.FigureRW(scenario.RWFigureGroups(scale), run)
		report.FigureRW(out, groups)
		if csv != nil {
			report.FigureRWCSV(csv, groups)
		}
	}
	if sel("headlines") && fig5 != nil {
		report.Headlines(out, harness.Headlines(fig5))
	}
	if sel("qp") {
		fmt.Fprintln(out, "\nrunning QP-thrashing sweep...")
		report.QPThrashing(out, harness.QPThrashing(scale, run))
	}
	if sel("ablations") {
		fmt.Fprintln(out, "\nrunning ablations...")
		report.Ablations(out, harness.Ablations(scale, run))
	}
	if sel("tla") {
		fmt.Fprintln(out, "\nmodel-checking the Appendix A specification...")
		configs := []check.Config{
			{Procs: 2, Budget: 1}, {Procs: 2, Budget: 2}, {Procs: 3, Budget: 1},
		}
		if !*quick {
			configs = append(configs, check.Config{Procs: 3, Budget: 2})
		}
		for _, cfg := range configs {
			res, err := check.Run(cfg)
			if err != nil {
				fmt.Fprintf(out, "  procs=%d budget=%d: %v\n", cfg.Procs, cfg.Budget, err)
				continue
			}
			verdict := "OK (mutual exclusion, deadlock-freedom, starvation-freedom)"
			if !res.OK() {
				verdict = "VIOLATION: " + res.String()
			}
			fmt.Fprintf(out, "  procs=%d budget=%d: %d states, %d transitions — %s\n",
				cfg.Procs, cfg.Budget, res.States, res.Transitions, verdict)
		}
	}
}

func listScenarios(w io.Writer) {
	fmt.Fprintln(w, "registered scenarios:")
	for _, sc := range scenario.All() {
		fmt.Fprintf(w, "  %-28s %s\n", sc.Name, sc.Description)
	}
}
