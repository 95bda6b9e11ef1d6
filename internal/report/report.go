// Package report renders harness results as the rows and series the paper
// reports: aligned text tables for the terminal and CSV for replotting.
// One renderer exists per table/figure of the evaluation; the four
// per-run renderers (Sweep, FigureRW and their CSVs) are views of the one
// column list in columns.go.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"alock/internal/harness"
)

// writeTable renders rows as an aligned text table with a header. Column
// widths are measured in runes, not bytes, so multi-byte cells (µs units,
// algorithm names beyond ASCII) keep the columns aligned.
func writeTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// ops formats a throughput in ops/sec with engineering units.
func ops(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// ns formats a duration in nanoseconds with engineering units.
func ns(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.2fus", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}

// Figure1 renders the loopback-congestion experiment.
func Figure1(w io.Writer, pts []harness.Fig1Point) {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Threads),
			ops(p.Throughput),
			ns(p.MaxBacklog),
		})
	}
	writeTable(w, "Figure 1: RDMA spinlock, 1k locks, 1 node (loopback congestion)",
		[]string{"threads", "throughput(ops/s)", "max NIC backlog"}, rows)
}

// Figure1CSV emits threads,throughput rows.
func Figure1CSV(w io.Writer, pts []harness.Fig1Point) {
	fmt.Fprintln(w, "figure,threads,throughput_ops,max_backlog_ns")
	for _, p := range pts {
		fmt.Fprintf(w, "fig1,%d,%.1f,%d\n", p.Threads, p.Throughput, p.MaxBacklog)
	}
}

// Figure4 renders the budget study.
func Figure4(w io.Writer, rows4 []harness.Fig4Row) {
	var rows [][]string
	for _, r := range rows4 {
		var locs []int
		for l := range r.PerLocality {
			locs = append(locs, l)
		}
		sort.Ints(locs)
		var per []string
		for _, l := range locs {
			per = append(per, fmt.Sprintf("%d%%:%.3f", l, r.PerLocality[l]))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Locks),
			fmt.Sprintf("%d", r.RemoteBudget),
			fmt.Sprintf("%d", r.LocalBudget),
			strings.Join(per, " "),
			fmt.Sprintf("%.3fx", r.AvgSpeedup),
		})
	}
	writeTable(w, "Figure 4: speedup vs baseline remote budget 5 (local budget 5)",
		[]string{"locks", "remote budget", "local budget", "per-locality speedup", "avg speedup"}, rows)
}

// Figure5 renders the throughput grid.
func Figure5(w io.Writer, panels []harness.Fig5Panel) {
	for _, p := range panels {
		title := fmt.Sprintf("Figure 5(%s): %d nodes, %d locks, %d%% locality",
			p.ID, p.Nodes, p.Locks, p.LocalityPct)
		header := []string{"threads/node"}
		for _, s := range p.Series {
			header = append(header, s.Algorithm+"(ops/s)")
		}
		if len(p.Series) == 0 {
			continue
		}
		var rows [][]string
		for i, th := range p.Series[0].Threads {
			row := []string{fmt.Sprintf("%d", th)}
			for _, s := range p.Series {
				row = append(row, ops(s.Throughput[i]))
			}
			rows = append(rows, row)
		}
		writeTable(w, title, header, rows)
	}
}

// Figure5CSV emits one row per (panel, algorithm, threads).
func Figure5CSV(w io.Writer, panels []harness.Fig5Panel) {
	fmt.Fprintln(w, "figure,panel,nodes,locks,locality_pct,algorithm,threads_per_node,throughput_ops")
	for _, p := range panels {
		for _, s := range p.Series {
			for i, th := range s.Threads {
				fmt.Fprintf(w, "fig5,%s,%d,%d,%d,%s,%d,%.1f\n",
					p.ID, p.Nodes, p.Locks, p.LocalityPct, s.Algorithm, th, s.Throughput[i])
			}
		}
	}
}

// Figure5Locality renders the ALock locality sweep.
func Figure5Locality(w io.Writer, pts []harness.Fig5LocalityPoint) {
	var rows [][]string
	for i, p := range pts {
		delta := "-"
		if i > 0 && pts[i-1].Throughput > 0 {
			delta = fmt.Sprintf("%+.0f%%", (p.Throughput/pts[i-1].Throughput-1)*100)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", p.LocalityPct), ops(p.Throughput), delta,
		})
	}
	writeTable(w, "Figure 5 supplement: ALock locality sweep (5 nodes, 1000 locks, 8 thr/node)",
		[]string{"locality", "throughput(ops/s)", "delta vs previous"}, rows)
}

// Figure6 renders the latency grid (summaries plus optional CDH dump).
func Figure6(w io.Writer, panels []harness.Fig6Panel) {
	for _, p := range panels {
		title := fmt.Sprintf("Figure 6(%s): 10 nodes, 8 thr/node, %d locks, %d%% locality",
			p.ID, p.Locks, p.LocalityPct)
		var rows [][]string
		for _, s := range p.Series {
			rows = append(rows, []string{
				s.Algorithm,
				ns(int64(s.Summary.MeanNS)),
				ns(s.Summary.P50NS),
				ns(s.Summary.P90NS),
				ns(s.Summary.P99NS),
				ns(s.Summary.P999NS),
				ns(s.Summary.MaxNS),
			})
		}
		writeTable(w, title,
			[]string{"algorithm", "mean", "p50", "p90", "p99", "p99.9", "max"}, rows)
	}
}

// Figure6CSV dumps the full CDFs, one row per (panel, algorithm, point).
func Figure6CSV(w io.Writer, panels []harness.Fig6Panel) {
	fmt.Fprintln(w, "figure,panel,locks,locality_pct,algorithm,latency_ns,cdf")
	for _, p := range panels {
		for _, s := range p.Series {
			for _, pt := range s.CDF {
				fmt.Fprintf(w, "fig6,%s,%d,%d,%s,%d,%.6f\n",
					p.ID, p.Locks, p.LocalityPct, s.Algorithm, pt.ValueNS, pt.F)
			}
		}
	}
}

// Table1 renders the measured atomicity matrix next to the paper's.
func Table1(w io.Writer, cells []harness.Table1Cell) {
	expected := map[string]bool{
		"Read/Read": true, "Read/Write": true, "Read/CAS": true,
		"Write/Read": true, "Write/Write": true, "Write/CAS": false,
		"RMW/Read": true, "RMW/Write": true, "RMW/CAS": false,
	}
	var rows [][]string
	for _, c := range cells {
		key := c.LocalClass + "/" + c.RemoteOp
		verdict := "MATCH"
		if expected[key] != c.Atomic {
			verdict = "MISMATCH"
		}
		rows = append(rows, []string{
			c.LocalClass, c.RemoteOp,
			yesNo(c.Atomic), yesNo(expected[key]), verdict,
		})
	}
	writeTable(w, "Table 1: atomicity between 8-byte local and remote accesses",
		[]string{"local access", "remote op", "measured", "paper", "verdict"}, rows)
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// Ablations renders the design-choice ablation table.
func Ablations(w io.Writer, rows0 []harness.AblationRow) {
	base := 0.0
	for _, r := range rows0 {
		if r.Algorithm == "alock" {
			base = r.Throughput
		}
	}
	var rows [][]string
	for _, r := range rows0 {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", r.Throughput/base)
		}
		rows = append(rows, []string{r.Algorithm, ops(r.Throughput), rel, ns(r.P99NS)})
	}
	writeTable(w, "Ablations: 8 nodes, 8 thr/node, 100 locks, 90% locality",
		[]string{"algorithm", "throughput(ops/s)", "vs alock", "p99 latency"}, rows)
}

// Headlines renders the paper-vs-measured headline ratios.
func Headlines(w io.Writer, h harness.HeadlineRatios) {
	rows := [][]string{
		{"high contention, ALock vs MCS", "up to 29x", fmt.Sprintf("%.1fx", h.HighContentionVsMCS)},
		{"high contention, ALock vs spinlock", "up to 24x", fmt.Sprintf("%.1fx", h.HighContentionVsSpin)},
		{"100% locality, ALock vs MCS", "up to 24x", fmt.Sprintf("%.1fx", h.FullLocalityVsMCS)},
		{"100% locality, ALock vs spinlock", "up to 22x", fmt.Sprintf("%.1fx", h.FullLocalityVsSpin)},
		{"low contention, ALock vs MCS", "up to 3.8x", fmt.Sprintf("%.1fx", h.LowContentionVsMCS)},
		{"low contention, ALock vs spinlock", "up to 3.3x", fmt.Sprintf("%.1fx", h.LowContentionVsSpin)},
	}
	writeTable(w, "Headline ratios: paper vs this reproduction",
		[]string{"claim", "paper", "measured"}, rows)
}

// Summary pretty-prints a one-off harness result (cmd/alockbench).
func Summary(w io.Writer, r harness.Result) {
	fmt.Fprintf(w, "algorithm      : %s\n", r.Config.Algorithm)
	fmt.Fprintf(w, "cluster        : %d nodes x %d threads\n", r.Config.Nodes, r.Config.ThreadsPerNode)
	fmt.Fprintf(w, "locks          : %d (%d%% locality)\n", r.Config.Locks, r.Config.LocalityPct)
	if c := r.Config; c.ReadPct > 0 || c.LeaseProb > 0 {
		fmt.Fprintf(w, "workload       : %d%% reads", c.ReadPct)
		if c.LeaseProb > 0 {
			fmt.Fprintf(w, ", %.1f%% leases of %v", c.LeaseProb*100, c.LeaseHold)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ops recorded   : %d over %s\n", r.Ops, ns(r.SpanNS))
	fmt.Fprintf(w, "throughput     : %s ops/s\n", ops(r.Throughput))
	if s := r.Svc; s != nil {
		fmt.Fprintf(w, "service        : %d shards (%s placement, %s, queue cap %d), %d clients\n",
			s.Shards, s.Placement, s.Policy, s.QueueCap, s.Clients)
		shedPct := 0.0
		if s.Offered > 0 {
			shedPct = float64(s.Shed) / float64(s.Offered) * 100
		}
		fmt.Fprintf(w, "offered load   : %s ops/s offered, %s ops/s goodput; %d of %d shed (%.1f%%, %d at deadline)\n",
			ops(s.OfferedOPS), ops(s.GoodputOPS), s.Shed, s.Offered, shedPct, s.Timeouts)
		fmt.Fprintf(w, "queue wait     : p50=%s p99=%s p99.9=%s max=%s (deepest queue %d)\n",
			ns(s.QueueWait.P50NS), ns(s.QueueWait.P99NS), ns(s.QueueWait.P999NS),
			ns(s.QueueWait.MaxNS), s.MaxQueueLen)
		fmt.Fprintf(w, "acquire wait   : p50=%s p99=%s p99.9=%s max=%s\n",
			ns(s.AcquireWait.P50NS), ns(s.AcquireWait.P99NS), ns(s.AcquireWait.P999NS),
			ns(s.AcquireWait.MaxNS))
		fmt.Fprintf(w, "hold time      : p50=%s p99=%s p99.9=%s max=%s\n",
			ns(s.HoldTime.P50NS), ns(s.HoldTime.P99NS), ns(s.HoldTime.P999NS),
			ns(s.HoldTime.MaxNS))
		fmt.Fprintf(w, "shard balance  : served %s\n", shardServed(s.ShardServed))
	}
	if r.Timeouts > 0 || r.Abandons > 0 || r.FencedReleases > 0 {
		fmt.Fprintf(w, "outcomes       : %d timeouts (p50 give-up %s), %d abandons, %d fenced releases\n",
			r.Timeouts, ns(r.TimeoutLatency.P50NS), r.Abandons, r.FencedReleases)
	}
	if r.LateAcquires > 0 {
		fmt.Fprintf(w, "late acquires  : %d grants landed past their deadline (best-effort timed path)\n",
			r.LateAcquires)
	}
	if r.PairOps > 0 {
		fmt.Fprintf(w, "two-lock ops   : %d of %d recorded ops\n", r.PairOps, r.Ops)
	}
	if c := r.Config; c.TxnLocks >= 2 {
		fmt.Fprintf(w, "transactions   : %d commits, %d aborts, %d retries (%s, %d locks)\n",
			r.TxnCommits, r.TxnAborts, r.TxnRetries, txnPolicyName(c), c.TxnLocks)
		if r.TxnCommits > 0 {
			fmt.Fprintf(w, "commit latency : p50=%s p99=%s; retries p99=%d max=%d\n",
				ns(r.CommitLatency.P50NS), ns(r.CommitLatency.P99NS),
				r.TxnRetryHist.P99NS, r.TxnRetryHist.MaxNS)
		}
	}
	fmt.Fprintf(w, "latency        : mean=%s p50=%s p99=%s p99.9=%s max=%s\n",
		ns(int64(r.Latency.MeanNS)), ns(r.Latency.P50NS), ns(r.Latency.P99NS),
		ns(r.Latency.P999NS), ns(r.Latency.MaxNS))
	if r.ReadOps > 0 {
		fmt.Fprintf(w, "read latency   : n=%d mean=%s p50=%s p99=%s max=%s\n",
			r.ReadOps, ns(int64(r.ReadLatency.MeanNS)), ns(r.ReadLatency.P50NS),
			ns(r.ReadLatency.P99NS), ns(r.ReadLatency.MaxNS))
	}
	if r.ReadOps > 0 && r.WriteOps > 0 {
		fmt.Fprintf(w, "write latency  : n=%d mean=%s p50=%s p99=%s max=%s\n",
			r.WriteOps, ns(int64(r.WriteLatency.MeanNS)), ns(r.WriteLatency.P50NS),
			ns(r.WriteLatency.P99NS), ns(r.WriteLatency.MaxNS))
	}
	fmt.Fprintf(w, "fabric         : %d verbs, %d QPC misses, %d slowdowns, max backlog %s\n",
		r.NIC.Verbs, r.NIC.QPCMisses, r.NIC.Slowdowns, ns(r.NIC.MaxBacklogNS))
	if r.Lock.Acquires > 0 {
		fmt.Fprintf(w, "alock internals: %d acquires (%d local / %d remote), %d passes, %d reacquires\n",
			r.Lock.Acquires, r.Lock.LocalOps, r.Lock.RemoteOps, r.Lock.Passes, r.Lock.Reacquires)
	}
	fmt.Fprintf(w, "events         : %d simulator events\n", r.Events)
}

// shardServed renders a per-shard served-count vector compactly.
func shardServed(counts []int64) string {
	var b strings.Builder
	for i, c := range counts {
		if i > 0 {
			b.WriteString("/")
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// Sweep renders an arbitrary batch of results — a scenario expansion — as
// one row per run, with the config knobs that differ between runs spelled
// out alongside throughput and tail latency. Per-class latency, outcome,
// transaction and service columns appear only when some run has them.
func Sweep(w io.Writer, title string, results []harness.Result) {
	header, rows := sweepView.table(results)
	writeTable(w, title, header, rows)
}

// SweepCSV emits one CSV row per run of a scenario sweep.
func SweepCSV(w io.Writer, name string, results []harness.Result) {
	fmt.Fprintln(w, sweepView.csvHeader("scenario"))
	for _, r := range results {
		fmt.Fprintln(w, sweepView.csvRow(name, r))
	}
}

// FigureRW renders the reader/writer and failure figure: one table per
// scenario family, one row per run, with per-class (read vs write) tail
// latencies next to throughput — the storm's cost shows up in the write
// tail long before it shows in aggregate throughput. Families whose runs
// produce acquisition outcomes beyond the happy path (timeouts, abandons,
// fenced releases) grow the outcome columns.
func FigureRW(w io.Writer, groups []harness.FigRWGroup) {
	for _, g := range groups {
		header, rows := figRWView.table(g.Results)
		writeTable(w, "Figure RW: "+g.Name, header, rows)
	}
}

// FigureRWCSV emits one CSV row per run of the reader/writer figure, with
// per-algorithm read and write percentile columns for replotting.
func FigureRWCSV(w io.Writer, groups []harness.FigRWGroup) {
	fmt.Fprintln(w, figRWView.csvHeader("figure,scenario"))
	for _, g := range groups {
		for _, r := range g.Results {
			fmt.Fprintln(w, figRWView.csvRow("figrw,"+g.Name, r))
		}
	}
}

// workloadExtras summarizes the config knobs beyond the base grid — read
// mix, leases, jitter, skew, bursts, think time — for sweep-style tables.
func workloadExtras(c harness.Config) string {
	extras := ""
	if c.ReadPct > 0 {
		extras += fmt.Sprintf(" read=%d%%", c.ReadPct)
	}
	if c.LeaseProb > 0 {
		extras += fmt.Sprintf(" lease=%.1f%%/%v", c.LeaseProb*100, c.LeaseHold)
	}
	if c.Model.JitterProb > 0 {
		extras += fmt.Sprintf(" jitter=%.1f%%/%s", c.Model.JitterProb*100, ns(c.Model.JitterNS))
	}
	if c.ZipfS > 0 {
		extras += fmt.Sprintf(" zipf=%.1f", c.ZipfS)
	}
	if c.BurstOn > 0 {
		extras += fmt.Sprintf(" burst=%v/%v", c.BurstOn, c.BurstOff)
	}
	if c.HomeSkewPct > 0 {
		extras += fmt.Sprintf(" homeskew=%d%%", c.HomeSkewPct)
	}
	if c.AcquireTimeout > 0 {
		extras += fmt.Sprintf(" timeout=%v", c.AcquireTimeout)
	}
	if c.AbandonProb > 0 {
		extras += fmt.Sprintf(" abandon=%.1f%%/%v", c.AbandonProb*100, c.AbandonHold)
	}
	if c.PairProb > 0 {
		extras += fmt.Sprintf(" pair=%.0f%%", c.PairProb*100)
	}
	if c.TxnLocks >= 2 {
		extras += fmt.Sprintf(" txn=%dx/%s", c.TxnLocks, txnPolicyName(c))
		if c.TxnRing {
			extras += "/ring"
		}
	}
	if c.CSWork > 0 || c.Think > 0 {
		extras += fmt.Sprintf(" cs=%v think=%v", c.CSWork, c.Think)
	}
	if c.OpenLoop() {
		place := c.SvcPlacement
		if place == "" {
			place = "hash"
		}
		adm := c.SvcAdmission
		if adm == "" {
			adm = "drop-tail"
		}
		extras += fmt.Sprintf(" rate=%s/s shards=%d %s cap=%d %s",
			ops(c.ArrivalRate), c.SvcShards, place, c.SvcQueueCap, adm)
		if c.SvcRebalance {
			extras += " rebalance"
		}
	}
	return strings.TrimSpace(extras)
}

// txnPolicyName spells the effective transaction policy (empty = ordered).
func txnPolicyName(c harness.Config) string {
	if c.TxnPolicy == "" {
		return "ordered"
	}
	return c.TxnPolicy
}

// QPThrashing renders the QP context-cache sweep (Section 2 extension).
func QPThrashing(w io.Writer, rows0 []harness.QPThrashRow) {
	var rows [][]string
	for _, r := range rows0 {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.CacheCap),
			r.Algorithm,
			ops(r.Throughput),
			fmt.Sprintf("%.1f%%", r.MissRate*100),
			fmt.Sprintf("%d", r.DistinctQPs),
		})
	}
	writeTable(w, "QP thrashing: QPC cache capacity sweep (16 nodes, 1000 locks, 90% locality)",
		[]string{"QPC cache", "algorithm", "throughput(ops/s)", "QPC miss rate", "distinct QPs"}, rows)
}
