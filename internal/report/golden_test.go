package report

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alock/internal/harness"
	"alock/internal/model"
	"alock/internal/stats"
)

// The golden files pin the bytes of the four column-driven renderers. They
// were generated from the commit before the renderers moved onto one
// column list, so "the refactor changed no output" stays checkable; rerun
// with -update only when an output change is the point of the PR.
var update = flag.Bool("update", false, "rewrite internal/report/testdata/*.golden")

// lat builds a digest whose percentiles are distinct multiples of base, so
// a renderer that picks the wrong percentile shows up in the diff.
func lat(count, base int64) stats.Summary {
	return stats.Summary{Count: count, MeanNS: float64(base) * 1.5, P50NS: base,
		P90NS: 2 * base, P99NS: 3 * base, P999NS: 4 * base, MaxNS: 5 * base}
}

// mixedResults is one run of every shape the sweep and Figure RW tables
// distinguish: closed-loop exclusive, read/write with every workload
// extra, timeout plus abandon, k-lock transaction, open-loop service.
// Every number is distinct so swapped columns cannot cancel out.
func mixedResults() []harness.Result {
	jitter := model.CX3()
	jitter.JitterProb, jitter.JitterNS = 0.015, 2500
	return []harness.Result{
		{
			Config: harness.Config{Algorithm: "alock", Nodes: 5, ThreadsPerNode: 8,
				Locks: 100, LocalityPct: 90},
			Ops: 4100, WriteOps: 4100, Throughput: 2.345e6,
			Latency: lat(4100, 1100), WriteLatency: lat(4100, 1100),
		},
		{
			Config: harness.Config{Algorithm: "rw-queue", Nodes: 16, ThreadsPerNode: 4,
				Locks: 20, LocalityPct: 85, ReadPct: 70, LeaseProb: 0.02,
				LeaseHold: 25 * time.Microsecond, Model: jitter, ZipfS: 1.5,
				BurstOn: 150 * time.Microsecond, BurstOff: 100 * time.Microsecond,
				HomeSkewPct: 40, PairProb: 0.1, CSWork: 200 * time.Nanosecond,
				Think: time.Microsecond},
			Ops: 900, ReadOps: 630, WriteOps: 270, PairOps: 91, Throughput: 812_345.6,
			Latency: lat(900, 21_000), ReadLatency: lat(630, 17_000),
			WriteLatency: lat(270, 33_000),
		},
		{
			Config: harness.Config{Algorithm: "mcs", Nodes: 4, ThreadsPerNode: 6,
				Locks: 10, LocalityPct: 95, AcquireTimeout: 30 * time.Microsecond,
				AbandonProb: 0.01, AbandonHold: 200 * time.Microsecond},
			Ops: 555, WriteOps: 555, Throughput: 640.4,
			Latency: lat(555, 45_000), WriteLatency: lat(555, 45_000),
			Timeouts: 77, TimeoutLatency: lat(77, 30_100), Abandons: 6,
			FencedReleases: 5, LateAcquires: 3,
		},
		{
			Config: harness.Config{Algorithm: "spinlock", Nodes: 8, ThreadsPerNode: 2,
				Locks: 16, LocalityPct: 100, AcquireTimeout: 20 * time.Microsecond,
				TxnLocks: 3, TxnOrder: "unordered", TxnPolicy: "timeout-backoff",
				TxnBackoff: 10 * time.Microsecond, TxnRing: true},
			Ops: 1200, WriteOps: 1200, Throughput: 98_765.4,
			Latency: lat(1200, 60_000), WriteLatency: lat(1200, 60_000),
			TxnCommits: 1200, TxnAborts: 340, TxnRetries: 331,
			TxnRetryHist: lat(1200, 2), CommitLatency: lat(1200, 61_000),
		},
		{
			Config: harness.Config{Algorithm: "alock", Nodes: 8, ThreadsPerNode: 4,
				Locks: 1000, LocalityPct: 90, ReadPct: 50, ArrivalRate: 2.5e6,
				Clients: 1_000_000, SvcShards: 8, SvcPlacement: "home", SvcQueueCap: 64,
				SvcAdmission: "drop-head", SvcRebalance: true},
			Ops: 7000, ReadOps: 3400, WriteOps: 3600, Throughput: 1.75e6,
			Latency: lat(7000, 9000), ReadLatency: lat(3400, 8000),
			WriteLatency: lat(3600, 9500), Timeouts: 12,
			Svc: &harness.SvcStats{Shards: 8, Placement: "home+rebalance", Policy: "drop-head",
				QueueCap: 64, Clients: 1_000_000, Offered: 10_000, Served: 7000, Shed: 3000,
				Timeouts: 12, TotalOffered: 11_000, TotalServed: 7700, TotalShed: 3300,
				OfferedOPS: 2.5e6, GoodputOPS: 1.75e6, MaxQueueLen: 64,
				ShardServed: []int64{900, 880, 870, 860, 875, 865, 870, 880},
				QueueWait:   lat(7000, 4000), AcquireWait: lat(7000, 1300),
				HoldTime: lat(7000, 700)},
		},
	}
}

// goldenViews renders every column-driven view over the mixed set, over
// its closed-loop exclusive prefix (no optional column group shows), and,
// for Figure RW, split into per-family groups.
func goldenViews() map[string]func(io.Writer) {
	all := mixedResults()
	groups := []harness.FigRWGroup{
		{Name: "rw/mixed", Results: all[:2]},
		{Name: "fail/outcomes", Results: all[2:3]},
		{Name: "deadlock/txn", Results: all[3:4]},
		{Name: "svc/open", Results: all[4:]},
	}
	return map[string]func(io.Writer){
		"sweep.golden":       func(w io.Writer) { Sweep(w, "Scenario mixed: every row shape", all) },
		"sweep_plain.golden": func(w io.Writer) { Sweep(w, "Scenario plain: exclusive only", all[:1]) },
		"sweep_csv.golden":   func(w io.Writer) { SweepCSV(w, "mixed/all", all) },
		"figrw.golden":       func(w io.Writer) { FigureRW(w, groups) },
		"figrw_csv.golden":   func(w io.Writer) { FigureRWCSV(w, groups) },
	}
}

func TestGoldenRenderers(t *testing.T) {
	for name, render := range goldenViews() {
		var got bytes.Buffer
		render(&got)
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from golden\n--- got ---\n%s--- want ---\n%s", name, got.String(), want)
		}
	}
}

// TestViewArity: in every view the header and each row have the same
// number of cells, and every CSV row splits into exactly as many fields as
// its header — the property the hand-aligned format strings used to carry.
func TestViewArity(t *testing.T) {
	all := mixedResults()
	sets := map[string][]harness.Result{"mixed": all, "plain": all[:1], "svc": all[4:]}
	views := map[string]view{"sweep": sweepView, "figrw": figRWView}
	for setName, rs := range sets {
		for viewName, v := range views {
			header, rows := v.table(rs)
			if len(rows) != len(rs) {
				t.Errorf("%s/%s: %d rows for %d results", setName, viewName, len(rows), len(rs))
			}
			for i, row := range rows {
				if len(row) != len(header) {
					t.Errorf("%s/%s row %d: %d cells under %d headers", setName, viewName, i, len(row), len(header))
				}
			}
			want := len(strings.Split(v.csvHeader("lead"), ","))
			for i, r := range rs {
				if got := len(strings.Split(v.csvRow("lead", r), ",")); got != want {
					t.Errorf("%s/%s csv row %d: %d fields under %d headers", setName, viewName, i, got, want)
				}
			}
		}
	}
}
