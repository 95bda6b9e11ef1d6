// columns.go is the one place a per-run result column is declared. The
// sweep table, the Figure RW table and both of their CSVs are four views
// of the same ordered list: a column names the views that carry it, its
// CSV name and table header, how to read its value from one result, and
// how each rendering formats it. Adding a column is one entry here.
package report

import (
	"fmt"
	"strings"

	"alock/internal/harness"
)

type result = harness.Result

// views is the set of renderings a column appears in.
type views uint8

const (
	sweepTable views = 1 << iota
	figRWTable
	sweepCSV
	figRWCSV

	tables = sweepTable | figRWTable
	csvs   = sweepCSV | figRWCSV
	all    = tables | csvs
)

// group gates optional table columns on the result set: a table shows a
// group's columns when at least one of its rows is on. CSVs always carry
// every column.
type group struct {
	on func(result) bool
	// dash: rows that are off print "-" under the group's columns (there
	// is nothing behind the value), instead of the value itself.
	dash bool
}

var (
	reads    = &group{on: func(r result) bool { return r.ReadOps > 0 }}
	outcomes = &group{on: func(r result) bool {
		return r.Timeouts > 0 || r.Abandons > 0 || r.FencedReleases > 0 || r.LateAcquires > 0
	}}
	txn = &group{on: func(r result) bool { return r.Config.TxnLocks >= 2 }, dash: true}
	svc = &group{on: func(r result) bool { return r.Svc != nil }, dash: true}
)

type column struct {
	in   views
	when *group // nil: every table that carries the column shows it
	csv  string // CSV column name
	head string // table header
	// val reads the column's value from one run. Columns of the svc group
	// may dereference r.Svc: they are only asked on open-loop rows.
	val  func(r result) any
	verb string           // CSV format verb; "" is %v
	show func(any) string // table cell format; nil is %v
	// blank marks rows whose table cell is "-" because no sample stands
	// behind the value (a p99 over zero reads).
	blank func(r result) bool
}

// Table cell formats.
func asNS(v any) string  { return ns(v.(int64)) }
func asOps(v any) string { return ops(v.(float64)) }
func asPct(v any) string { return fmt.Sprintf("%d%%", v) }

func noReads(r result) bool    { return r.ReadOps == 0 }
func noWrites(r result) bool   { return r.WriteOps == 0 }
func noTimeouts(r result) bool { return r.Timeouts == 0 }

// columns is every per-run column, in the order all four views print them.
var columns = []column{
	{in: all, csv: "algorithm", head: "algorithm", val: func(r result) any { return r.Config.Algorithm }},
	{in: tables, head: "cluster", val: func(r result) any {
		return fmt.Sprintf("%dx%d", r.Config.Nodes, r.Config.ThreadsPerNode)
	}},
	{in: csvs, csv: "nodes", val: func(r result) any { return r.Config.Nodes }},
	{in: csvs, csv: "threads_per_node", val: func(r result) any { return r.Config.ThreadsPerNode }},
	{in: all, csv: "locks", head: "locks", val: func(r result) any { return r.Config.Locks }},
	{in: sweepTable | csvs, csv: "locality_pct", head: "locality", show: asPct,
		val: func(r result) any { return r.Config.LocalityPct }},
	{in: tables, head: "workload", val: func(r result) any { return workloadExtras(r.Config) }},

	// Config axes, CSV only (the tables fold them into "workload").
	{in: sweepCSV, csv: "zipf_s", verb: "%.2f", val: func(r result) any { return r.Config.ZipfS }},
	{in: sweepCSV, csv: "burst_on_ns", val: func(r result) any { return r.Config.BurstOn.Nanoseconds() }},
	{in: sweepCSV, csv: "burst_off_ns", val: func(r result) any { return r.Config.BurstOff.Nanoseconds() }},
	{in: sweepCSV, csv: "home_skew_pct", val: func(r result) any { return r.Config.HomeSkewPct }},
	{in: csvs, csv: "read_pct", val: func(r result) any { return r.Config.ReadPct }},
	{in: csvs, csv: "lease_prob", verb: "%.4f", val: func(r result) any { return r.Config.LeaseProb }},
	{in: csvs, csv: "lease_hold_ns", val: func(r result) any { return r.Config.LeaseHold.Nanoseconds() }},
	{in: csvs, csv: "jitter_prob", verb: "%.4f", val: func(r result) any { return r.Config.Model.JitterProb }},
	{in: csvs, csv: "jitter_ns", val: func(r result) any { return r.Config.Model.JitterNS }},
	{in: csvs, csv: "acquire_timeout_ns", val: func(r result) any { return r.Config.AcquireTimeout.Nanoseconds() }},
	{in: csvs, csv: "abandon_prob", verb: "%.4f", val: func(r result) any { return r.Config.AbandonProb }},
	{in: csvs, csv: "pair_prob", verb: "%.4f", val: func(r result) any { return r.Config.PairProb }},
	{in: csvs, csv: "txn_locks", val: func(r result) any { return r.Config.TxnLocks }},
	{in: csvs, csv: "txn_order", val: func(r result) any { return r.Config.TxnOrder }},
	{in: csvs, csv: "txn_policy", val: func(r result) any { return r.Config.TxnPolicy }},
	{in: csvs, csv: "txn_backoff_ns", val: func(r result) any { return r.Config.TxnBackoff.Nanoseconds() }},

	// Throughput and latency. Figure RW always shows the per-class split;
	// the sweep shows it when some run recorded reads.
	{in: all, csv: "throughput_ops", head: "throughput(ops/s)", verb: "%.1f", show: asOps,
		val: func(r result) any { return r.Throughput }},
	{in: sweepTable | sweepCSV, csv: "p50_ns", head: "p50", show: asNS, val: func(r result) any { return r.Latency.P50NS }},
	{in: sweepTable | sweepCSV, csv: "p99_ns", head: "p99", show: asNS, val: func(r result) any { return r.Latency.P99NS }},
	{in: figRWTable | figRWCSV, csv: "read_p50_ns", head: "read p50", show: asNS, blank: noReads,
		val: func(r result) any { return r.ReadLatency.P50NS }},
	{in: all, when: reads, csv: "read_p99_ns", head: "read p99", show: asNS, blank: noReads,
		val: func(r result) any { return r.ReadLatency.P99NS }},
	{in: figRWTable | figRWCSV, csv: "write_p50_ns", head: "write p50", show: asNS, blank: noWrites,
		val: func(r result) any { return r.WriteLatency.P50NS }},
	{in: all, when: reads, csv: "write_p99_ns", head: "write p99", show: asNS, blank: noWrites,
		val: func(r result) any { return r.WriteLatency.P99NS }},
	{in: csvs, csv: "ops", val: func(r result) any { return r.Ops }},
	{in: csvs, csv: "read_ops", val: func(r result) any { return r.ReadOps }},
	{in: csvs, csv: "write_ops", val: func(r result) any { return r.WriteOps }},

	// Acquisition outcomes beyond the happy path.
	{in: all, when: outcomes, csv: "timeouts", head: "timeouts", val: func(r result) any { return r.Timeouts }},
	{in: figRWCSV, csv: "giveup_p50_ns", val: func(r result) any { return r.TimeoutLatency.P50NS }},
	{in: figRWTable | figRWCSV, when: outcomes, csv: "giveup_p99_ns", head: "give-up p99", show: asNS, blank: noTimeouts,
		val: func(r result) any { return r.TimeoutLatency.P99NS }},
	{in: all, when: outcomes, csv: "abandons", head: "abandons", val: func(r result) any { return r.Abandons }},
	{in: all, when: outcomes, csv: "fenced_releases", head: "fenced", val: func(r result) any { return r.FencedReleases }},
	{in: all, when: outcomes, csv: "late_acquires", head: "late", val: func(r result) any { return r.LateAcquires }},
	{in: csvs, csv: "pair_ops", val: func(r result) any { return r.PairOps }},

	// Transaction layer.
	{in: all, when: txn, csv: "txn_commits", head: "commits", val: func(r result) any { return r.TxnCommits }},
	{in: all, when: txn, csv: "txn_aborts", head: "txn aborts", val: func(r result) any { return r.TxnAborts }},
	{in: all, when: txn, csv: "txn_retries", head: "retries", val: func(r result) any { return r.TxnRetries }},
	{in: all, when: txn, csv: "retry_p99", head: "retry p99", val: func(r result) any { return r.TxnRetryHist.P99NS }},
	{in: csvs, csv: "commit_p50_ns", val: func(r result) any { return r.CommitLatency.P50NS }},
	{in: all, when: txn, csv: "commit_p99_ns", head: "commit p99", show: asNS,
		val: func(r result) any { return r.CommitLatency.P99NS }},

	// Lock service: offered load vs goodput, shed count, and the queue-wait
	// vs hold-time decomposition. Closed-loop CSV rows carry zeros.
	{in: csvs, when: svc, csv: "arrival_rate_ops", verb: "%.1f", val: func(r result) any { return r.Config.ArrivalRate }},
	{in: csvs, when: svc, csv: "clients", val: func(r result) any { return r.Svc.Clients }},
	{in: csvs, when: svc, csv: "svc_shards", val: func(r result) any { return r.Svc.Shards }},
	{in: csvs, when: svc, csv: "svc_placement", verb: "%s", val: func(r result) any { return r.Svc.Placement }},
	{in: csvs, when: svc, csv: "svc_queue_cap", val: func(r result) any { return r.Svc.QueueCap }},
	{in: csvs, when: svc, csv: "svc_admission", verb: "%s", val: func(r result) any { return r.Svc.Policy }},
	{in: csvs, when: svc, csv: "svc_rebalance", val: func(r result) any {
		if r.Config.SvcRebalance {
			return 1
		}
		return 0
	}},
	{in: all, when: svc, csv: "offered_ops", head: "offered(ops/s)", verb: "%.1f", show: asOps,
		val: func(r result) any { return r.Svc.OfferedOPS }},
	{in: csvs, when: svc, csv: "goodput_ops", verb: "%.1f", val: func(r result) any { return r.Svc.GoodputOPS }},
	{in: all, when: svc, csv: "svc_shed", head: "shed", val: func(r result) any { return r.Svc.Shed }},
	{in: csvs, when: svc, csv: "svc_timeouts", val: func(r result) any { return r.Svc.Timeouts }},
	{in: csvs, when: svc, csv: "max_queue_len", val: func(r result) any { return r.Svc.MaxQueueLen }},
	{in: csvs, when: svc, csv: "qwait_p50_ns", val: func(r result) any { return r.Svc.QueueWait.P50NS }},
	{in: all, when: svc, csv: "qwait_p99_ns", head: "qwait p99", show: asNS,
		val: func(r result) any { return r.Svc.QueueWait.P99NS }},
	{in: csvs, when: svc, csv: "qwait_p999_ns", val: func(r result) any { return r.Svc.QueueWait.P999NS }},
	{in: csvs, when: svc, csv: "acqwait_p50_ns", val: func(r result) any { return r.Svc.AcquireWait.P50NS }},
	{in: csvs, when: svc, csv: "acqwait_p99_ns", val: func(r result) any { return r.Svc.AcquireWait.P99NS }},
	{in: csvs, when: svc, csv: "hold_p50_ns", val: func(r result) any { return r.Svc.HoldTime.P50NS }},
	{in: all, when: svc, csv: "hold_p99_ns", head: "hold p99", show: asNS,
		val: func(r result) any { return r.Svc.HoldTime.P99NS }},
}

// view is one table plus its CSV.
type view struct {
	tableBit, csvBit views
	// always names a group the table shows whatever the result set holds.
	always *group
}

var (
	sweepView = view{tableBit: sweepTable, csvBit: sweepCSV}
	figRWView = view{tableBit: figRWTable, csvBit: figRWCSV, always: reads}
)

// table renders the view's header and one row per result, keeping the
// optional column groups only when the result set turns them on.
func (v view) table(results []result) (header []string, rows [][]string) {
	var cols []column
	for _, c := range columns {
		if c.in&v.tableBit == 0 {
			continue
		}
		shown := c.when == nil || c.when == v.always
		for i := 0; !shown && i < len(results); i++ {
			shown = c.when.on(results[i])
		}
		if shown {
			cols = append(cols, c)
			header = append(header, c.head)
		}
	}
	for _, r := range results {
		row := make([]string, len(cols))
		for i, c := range cols {
			switch {
			case c.when != nil && c.when.dash && !c.when.on(r), c.blank != nil && c.blank(r):
				row[i] = "-"
			case c.show != nil:
				row[i] = c.show(c.val(r))
			default:
				row[i] = fmt.Sprint(c.val(r))
			}
		}
		rows = append(rows, row)
	}
	return header, rows
}

// csvHeader is the view's CSV header line; lead names the columns the
// caller prefixes to every row (the scenario name, the figure tag).
func (v view) csvHeader(lead string) string {
	names := []string{lead}
	for _, c := range columns {
		if c.in&v.csvBit != 0 {
			names = append(names, c.csv)
		}
	}
	return strings.Join(names, ",")
}

// csvRow is one result's CSV line behind the caller's lead cells.
func (v view) csvRow(lead string, r result) string {
	cells := []string{lead}
	for _, c := range columns {
		if c.in&v.csvBit == 0 {
			continue
		}
		verb := c.verb
		if verb == "" {
			verb = "%v"
		}
		switch {
		case c.when != svc || r.Svc != nil:
			cells = append(cells, fmt.Sprintf(verb, c.val(r)))
		case verb == "%s": // closed-loop row: no service behind the column
			cells = append(cells, "")
		default:
			cells = append(cells, "0")
		}
	}
	return strings.Join(cells, ",")
}
