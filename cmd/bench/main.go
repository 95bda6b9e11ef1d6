// Command bench runs the repo's engine-layer micro suite and writes a
// BENCH_*.json trajectory file: every raw-engine case (internal/bench) measured
// on the serial executor (typed event heap, serial dispatch loop) and on the
// windowed one at one worker and at -engine-shards workers, each row labelled
// by the executor it ran on, with events/sec, ns/event and allocs/event per
// row plus the one-worker vs serial and wide vs one-worker speedups. -suite
// tiny runs every case at its small size, paper at its larger one (all but
// engine/barrier have one). PRs that claim an engine-layer speedup check the
// next trajectory file in (see the README's Benchmarking section); scenarios
// are timed end to end by ./benchmark.
//
// Usage:
//
//	go run ./cmd/bench -suite tiny -reps 3 -out BENCH_0007.json
//	go run ./cmd/bench -suite all -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"alock/internal/bench"
)

func main() {
	suite := flag.String("suite", "tiny", "case suite: tiny, paper or all")
	reps := flag.Int("reps", 3, "repetitions per case (best rep is reported)")
	out := flag.String("out", "", "output JSON path (empty: print to stdout)")
	list := flag.Bool("list", false, "list the suite's case names and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile")
	engShards := flag.Int("engine-shards", 0, "windowed workers for the wide windowed row (0 = default 2; 1 leaves only the one-worker row)")
	flag.Parse()

	if *list {
		cases, err := bench.Suite(*suite)
		if err != nil {
			fatal(err)
		}
		for _, c := range cases {
			fmt.Println(c.Name)
		}
		return
	}

	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}

	id := "bench"
	if *out != "" {
		id = strings.TrimSuffix(filepath.Base(*out), ".json")
	}
	rep, err := bench.Run(*suite, id, *reps, *engShards, func(m bench.Measurement) {
		fmt.Fprintf(os.Stderr, "%-32s %-8s %9.0f ev/s  %7.1f ns/ev  %.4f allocs/ev  %7.1f B/ev",
			m.Name, m.Engine, m.EventsPerSec, m.NSPerEvent, m.AllocsPerEvent, m.BytesPerEvent)
		if m.Windows > 0 {
			fmt.Fprintf(os.Stderr, "  %.0f ns/window", m.NSPerEvent*m.EventsPerWindow)
		}
		if m.WideWindows > 0 {
			fmt.Fprintf(os.Stderr, "  wide %d  serial %.2fms  spin %s  park %s  outbox %d",
				m.WideWindows, float64(m.SerialNS)/1e6, millis(m.SpinNS), millis(m.ParkNS), m.MaxOutbox)
		}
		fmt.Fprintln(os.Stderr)
	})
	if err != nil {
		fatal(err)
	}
	rep.Created = time.Now().UTC().Format(time.RFC3339)

	if err := stopProfiles(); err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}

	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "%-32s %12s %12s %12s %10s %10s\n", "case", "serial ev/s", "w1 ev/s", "wide ev/s", "w1/serial", "wide/w1")
	for _, c := range rep.Comparisons {
		fmt.Fprintf(os.Stderr, "%-32s %12s %12s %12s %10s %10s\n", c.Name,
			cell(c.SerialEventsPerSec, "%.0f"), cell(c.OneWorkerEventsPerSec, "%.0f"), cell(c.WindowedEventsPerSec, "%.0f"),
			cell(c.OneWorkerSpeedup, "%.2fx"), cell(c.WindowedSpeedup, "%.2fx"))
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(fmt.Errorf("bench: encode report: %w", err))
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	fmt.Fprintf(os.Stderr, "\nwrote %s (%d cases, %d comparisons)\n",
		*out, len(rep.Cases), len(rep.Comparisons))
}

// millis formats per-worker host ns as milliseconds.
func millis(ns []int64) string {
	ms := make([]string, len(ns))
	for i, n := range ns {
		ms[i] = fmt.Sprintf("%.2f", float64(n)/1e6)
	}
	return "[" + strings.Join(ms, " ") + "]ms"
}

// cell formats a comparison entry, "-" where the case has no such row.
func cell(v float64, format string) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// fatal prints err, which already names the command ("bench: ..."), and
// exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
