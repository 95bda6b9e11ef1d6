// Package report renders harness results as the rows and series the paper
// reports: aligned text tables for the terminal and CSV for replotting.
// One renderer exists per table/figure of the evaluation; each takes the
// results of the scenarios behind its figure and reads the axes it groups
// by from Result.Config. The four per-run renderers (Sweep, FigureRW and
// their CSVs) are views of the one column list in columns.go.
package report

import (
	"fmt"
	"io"
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

// bucket is a run of results sharing one key, in input order.
type bucket[K comparable] struct {
	key K
	rs  []harness.Result
}

// bucketBy splits rs by key, buckets in the order each key first appears —
// the order the scenario enumerated its grid in.
func bucketBy[K comparable](rs []harness.Result, key func(harness.Result) K) []bucket[K] {
	var out []bucket[K]
	at := map[K]int{}
	for _, r := range rs {
		k := key(r)
		i, ok := at[k]
		if !ok {
			i = len(out)
			at[k] = i
			out = append(out, bucket[K]{key: k})
		}
		out[i].rs = append(out[i].rs, r)
	}
	return out
}

func byAlgorithm(r harness.Result) string { return r.Config.Algorithm }

// shape is a figure panel's contention (lock count) and locality.
type shape struct{ locks, loc int }

func byShape(r harness.Result) shape { return shape{r.Config.Locks, r.Config.LocalityPct} }

// panelID letters a figure's panels a..l in rendering order.
func panelID(i int) string { return string(rune('a' + i%12)) }

// Figure1 renders the loopback-congestion experiment (paper/fig1-loopback).
func Figure1(w io.Writer, rs []harness.Result) {
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Config.ThreadsPerNode),
			ops(r.Throughput),
			ns(r.NIC.MaxBacklogNS),
		})
	}
	writeTable(w, "Figure 1: RDMA spinlock, 1k locks, 1 node (loopback congestion)",
		[]string{"threads", "throughput(ops/s)", "max NIC backlog"}, rows)
}

// Figure1CSV emits threads,throughput rows.
func Figure1CSV(w io.Writer, rs []harness.Result) {
	fmt.Fprintln(w, "figure,threads,throughput_ops,max_backlog_ns")
	for _, r := range rs {
		fmt.Fprintf(w, "fig1,%d,%.1f,%d\n", r.Config.ThreadsPerNode, r.Throughput, r.NIC.MaxBacklogNS)
	}
}

// fig4BaselineBudget is the remote budget Figure 4's speedups are over.
const fig4BaselineBudget = 5

// Figure4 renders the budget study (paper/fig4-budget): one row per (lock
// count, remote budget), each locality's seed-averaged throughput over the
// same locality's baseline-budget row, and the mean of those speedups.
func Figure4(w io.Writer, rs []harness.Result) {
	type cell struct {
		locks  int
		budget int64
		loc    int
	}
	cellOf := func(r harness.Result) cell {
		return cell{r.Config.Locks, r.Config.RemoteBudget, r.Config.LocalityPct}
	}
	mean := map[cell]float64{}
	for _, g := range bucketBy(rs, cellOf) {
		for _, r := range g.rs {
			mean[g.key] += r.Throughput / float64(len(g.rs))
		}
	}
	var rows [][]string
	for _, row := range bucketBy(rs, func(r harness.Result) [2]int64 {
		return [2]int64{int64(r.Config.Locks), r.Config.RemoteBudget}
	}) {
		locs := bucketBy(row.rs, func(r harness.Result) int { return r.Config.LocalityPct })
		var per []string
		var sum float64
		for _, l := range locs {
			c := cellOf(l.rs[0])
			base := c
			base.budget = fig4BaselineBudget
			sp := mean[c] / mean[base]
			per = append(per, fmt.Sprintf("%d%%:%.3f", c.loc, sp))
			sum += sp
		}
		first := row.rs[0].Config
		rows = append(rows, []string{
			fmt.Sprintf("%d", first.Locks),
			fmt.Sprintf("%d", first.RemoteBudget),
			fmt.Sprintf("%d", first.LocalBudget),
			strings.Join(per, " "),
			fmt.Sprintf("%.3fx", sum/float64(len(locs))),
		})
	}
	writeTable(w, "Figure 4: speedup vs baseline remote budget 5 (local budget 5)",
		[]string{"locks", "remote budget", "local budget", "per-locality speedup", "avg speedup"}, rows)
}

// fig5Panel is one panel of the Figure 5 grid: a cluster size, lock count
// and locality, with one series per algorithm across thread counts.
type fig5Panel struct {
	id    string
	nodes int
	shape
	series []bucket[string]
}

// throughput returns algo's series, or nil when the panel lacks it.
func (p fig5Panel) throughput(algo string) []float64 {
	for _, s := range p.series {
		if s.key == algo {
			out := make([]float64, len(s.rs))
			for i, r := range s.rs {
				out[i] = r.Throughput
			}
			return out
		}
	}
	return nil
}

// fig5Panels groups the results of the paper/fig5-* panel scenarios into
// panels, node-major: for each cluster size, the contention/locality shapes
// in the order the scenarios are listed.
func fig5Panels(rs []harness.Result) []fig5Panel {
	var panels []fig5Panel
	for _, n := range bucketBy(rs, func(r harness.Result) int { return r.Config.Nodes }) {
		for _, sh := range bucketBy(n.rs, byShape) {
			panels = append(panels, fig5Panel{
				id:     panelID(len(panels)),
				nodes:  n.key,
				shape:  sh.key,
				series: bucketBy(sh.rs, byAlgorithm),
			})
		}
	}
	return panels
}

// Figure5 renders the throughput grid from the paper/fig5-high-contention,
// -medium-contention, -low-contention and -full-locality results, in that
// order.
func Figure5(w io.Writer, rs []harness.Result) {
	for _, p := range fig5Panels(rs) {
		title := fmt.Sprintf("Figure 5(%s): %d nodes, %d locks, %d%% locality",
			p.id, p.nodes, p.locks, p.loc)
		header := []string{"threads/node"}
		for _, s := range p.series {
			header = append(header, s.key+"(ops/s)")
		}
		var rows [][]string
		for i, r := range p.series[0].rs {
			row := []string{fmt.Sprintf("%d", r.Config.ThreadsPerNode)}
			for _, s := range p.series {
				row = append(row, ops(s.rs[i].Throughput))
			}
			rows = append(rows, row)
		}
		writeTable(w, title, header, rows)
	}
}

// Figure5CSV emits one row per (panel, algorithm, threads).
func Figure5CSV(w io.Writer, rs []harness.Result) {
	fmt.Fprintln(w, "figure,panel,nodes,locks,locality_pct,algorithm,threads_per_node,throughput_ops")
	for _, p := range fig5Panels(rs) {
		for _, s := range p.series {
			for _, r := range s.rs {
				fmt.Fprintf(w, "fig5,%s,%d,%d,%d,%s,%d,%.1f\n",
					p.id, p.nodes, p.locks, p.loc, s.key, r.Config.ThreadsPerNode, r.Throughput)
			}
		}
	}
}

// Figure5Locality renders the ALock locality sweep (paper/fig5-locality).
func Figure5Locality(w io.Writer, rs []harness.Result) {
	var rows [][]string
	for i, r := range rs {
		delta := "-"
		if i > 0 && rs[i-1].Throughput > 0 {
			delta = fmt.Sprintf("%+.0f%%", (r.Throughput/rs[i-1].Throughput-1)*100)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", r.Config.LocalityPct), ops(r.Throughput), delta,
		})
	}
	writeTable(w, "Figure 5 supplement: ALock locality sweep (5 nodes, 1000 locks, 8 thr/node)",
		[]string{"locality", "throughput(ops/s)", "delta vs previous"}, rows)
}

// Figure6 renders the latency grid (paper/fig6-latency): one panel per
// shape, one row per algorithm.
func Figure6(w io.Writer, rs []harness.Result) {
	for i, p := range bucketBy(rs, byShape) {
		title := fmt.Sprintf("Figure 6(%s): 10 nodes, 8 thr/node, %d locks, %d%% locality",
			panelID(i), p.key.locks, p.key.loc)
		var rows [][]string
		for _, r := range p.rs {
			s := r.Latency
			rows = append(rows, []string{
				r.Config.Algorithm,
				ns(int64(s.MeanNS)),
				ns(s.P50NS),
				ns(s.P90NS),
				ns(s.P99NS),
				ns(s.P999NS),
				ns(s.MaxNS),
			})
		}
		writeTable(w, title,
			[]string{"algorithm", "mean", "p50", "p90", "p99", "p99.9", "max"}, rows)
	}
}

// Figure6CSV dumps the full CDFs, one row per (panel, algorithm, point).
func Figure6CSV(w io.Writer, rs []harness.Result) {
	fmt.Fprintln(w, "figure,panel,locks,locality_pct,algorithm,latency_ns,cdf")
	for i, p := range bucketBy(rs, byShape) {
		for _, r := range p.rs {
			for _, pt := range r.CDF {
				fmt.Fprintf(w, "fig6,%s,%d,%d,%s,%d,%.6f\n",
					panelID(i), p.key.locks, p.key.loc, r.Config.Algorithm, pt.ValueNS, pt.F)
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

// Ablations renders the design-choice ablation table (the ablations
// scenario), each algorithm's throughput relative to alock's.
func Ablations(w io.Writer, rs []harness.Result) {
	base := 0.0
	for _, r := range rs {
		if r.Config.Algorithm == "alock" {
			base = r.Throughput
		}
	}
	var rows [][]string
	for _, r := range rs {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", r.Throughput/base)
		}
		rows = append(rows, []string{r.Config.Algorithm, ops(r.Throughput), rel, ns(r.Latency.P99NS)})
	}
	writeTable(w, "Ablations: 8 nodes, 8 thr/node, 100 locks, 90% locality",
		[]string{"algorithm", "throughput(ops/s)", "vs alock", "p99 latency"}, rows)
}

// Headlines renders the paper's headline ratios next to the measured ones:
// the largest same-thread-count ALock/MCS and ALock/spinlock throughput
// ratios over the Figure 5 panels (the results Figure5 takes) at high
// contention, at 100% locality and at low contention.
func Headlines(w io.Writer, fig5 []harness.Result) {
	var high, full, low [2]float64 // vs MCS, vs spinlock
	for _, p := range fig5Panels(fig5) {
		var dst *[2]float64
		switch {
		case p.loc == 100:
			dst = &full
		case p.locks <= 20:
			dst = &high
		case p.locks >= 1000:
			dst = &low
		default:
			continue
		}
		al := p.throughput("alock")
		for i, rival := range []string{"mcs", "spinlock"} {
			dst[i] = max(dst[i], maxRatio(al, p.throughput(rival)))
		}
	}
	x := func(v float64) string { return fmt.Sprintf("%.1fx", v) }
	rows := [][]string{
		{"high contention, ALock vs MCS", "up to 29x", x(high[0])},
		{"high contention, ALock vs spinlock", "up to 24x", x(high[1])},
		{"100% locality, ALock vs MCS", "up to 24x", x(full[0])},
		{"100% locality, ALock vs spinlock", "up to 22x", x(full[1])},
		{"low contention, ALock vs MCS", "up to 3.8x", x(low[0])},
		{"low contention, ALock vs spinlock", "up to 3.3x", x(low[1])},
	}
	writeTable(w, "Headline ratios: paper vs this reproduction",
		[]string{"claim", "paper", "measured"}, rows)
}

// maxRatio is the largest a[i]/b[i] over the thread counts both series
// have, skipping zero denominators.
func maxRatio(a, b []float64) float64 {
	var m float64
	for i := range a {
		if i < len(b) && b[i] > 0 {
			m = max(m, a[i]/b[i])
		}
	}
	return m
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
		fmt.Fprintf(w, "late acquires  : %d grants landed past their deadline (a grant in flight at it, or a committed waiter's)\n",
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

// Group is one named scenario's results, in config order.
type Group struct {
	Name    string
	Results []harness.Result
}

// FigureRW renders the reader/writer and failure figure: one table per
// scenario family, one row per run, with per-class (read vs write) tail
// latencies next to throughput — the storm's cost shows up in the write
// tail long before it shows in aggregate throughput. Families whose runs
// produce acquisition outcomes beyond the happy path (timeouts, abandons,
// fenced releases) grow the outcome columns.
func FigureRW(w io.Writer, groups []Group) {
	for _, g := range groups {
		header, rows := figRWView.table(g.Results)
		writeTable(w, "Figure RW: "+g.Name, header, rows)
	}
}

// FigureRWCSV emits one CSV row per run of the reader/writer figure, with
// per-algorithm read and write percentile columns for replotting.
func FigureRWCSV(w io.Writer, groups []Group) {
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

// QPThrashing renders the QP context-cache sweep (the qp-thrashing
// scenario, a Section 2 extension): QPC misses per verb across all NICs,
// and the cluster-wide QP working set each algorithm created.
func QPThrashing(w io.Writer, rs []harness.Result) {
	var rows [][]string
	for _, r := range rs {
		missRate := 0.0
		if r.NIC.Verbs > 0 {
			missRate = float64(r.NIC.QPCMisses) / float64(r.NIC.Verbs)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Config.Model.QPCCacheCap),
			r.Config.Algorithm,
			ops(r.Throughput),
			fmt.Sprintf("%.1f%%", missRate*100),
			fmt.Sprintf("%d", r.NIC.DistinctQPs),
		})
	}
	writeTable(w, "QP thrashing: QPC cache capacity sweep (16 nodes, 1000 locks, 90% locality)",
		[]string{"QPC cache", "algorithm", "throughput(ops/s)", "QPC miss rate", "distinct QPs"}, rows)
}
