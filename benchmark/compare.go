package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// resultSet is what -out writes: one run, or with -all every workload's runs.
type resultSet struct {
	Host host        `json:"host"`
	Runs []runResult `json:"runs"`
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values are one metric's readings over a workload's runs, ordered by seed
// so that two sets pair up run by run.
func (s resultSet) values(workload, metric string, trace bool) []float64 {
	runs := slices.Clone(s.Runs)
	slices.SortStableFunc(runs, func(a, b runResult) int { return int(a.Seed - b.Seed) })
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is what the driver computes the spread with. Needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict compares a change's readings b with the parent's a, paired by
// position, by the rules of the choosing-metrics guide: a spread wider than
// the bound leaves the metric unresolved unless every run of one side beats
// every run of the other; a gain must exceed the parent's own spread and win
// nine pairs in ten.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	widest := max(spread(a), spread(b))
	gainFloor := spread(a)
	if higherBetter { // from here on lower is better
		a, b = negated(a), negated(b)
	}
	ma := median(a)
	worse := ratio(median(b)-ma, math.Abs(ma))
	switch {
	case slices.Max(b) < slices.Min(a):
		return "improved"
	case slices.Min(b) > slices.Max(a) && worse > bound:
		return "regressed"
	case widest > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if b[i] < a[i] {
			wins++
		}
	}
	if pairs >= 2 && -worse > gainFloor && wins*10 >= pairs*9 {
		return "improved"
	}
	return "unchanged"
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func workloadNames(s *spec) []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// printSpread is the acceptance check on one set: each end-to-end metric's
// quartile spread over the runs against a third of its bound.
func printSpread(w io.Writer, s *spec, set resultSet) {
	fmt.Fprintf(w, "\n%-14s %-20s %4s %14s %9s %9s\n", "workload", "metric", "n", "median", "spread", "bound/3")
	for _, wl := range workloadNames(s) {
		for _, d := range s.EndToEnd {
			vs := set.values(wl, d.Name, false)
			if len(vs) == 0 {
				continue
			}
			note := ""
			if d.Name != "setup_s" && spread(vs) >= d.Bound/3 {
				note = "  TOO WIDE"
			}
			fmt.Fprintf(w, "%-14s %-20s %4d %14.6g %8.2f%% %8.2f%%%s\n",
				wl, d.Name, len(vs), median(vs), 100*spread(vs), 100*d.Bound/3, note)
		}
	}
}

// printCompare prints one row per workload and end-to-end metric, then every
// exact count and digest that differs between the two sets.
func printCompare(w io.Writer, s *spec, a, b resultSet) {
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloadNames(s) {
		for _, d := range s.EndToEnd {
			va, vb := a.values(wl, d.Name, false), b.values(wl, d.Name, false)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
				wl, d.Name, median(va), median(vb), 100*ratio(median(vb)-median(va), median(va)),
				100*spread(va), 100*spread(vb), 100*d.Bound, verdict(va, vb, d.Better == "higher", d.Bound))
		}
	}

	fmt.Fprintln(w, "\nexact counts and digests (same workload, seed and trace setting):")
	diffs := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			where := fmt.Sprintf("%s seed %d", ra.Workload, ra.Seed)
			if ra.Attempted != rb.Attempted || ra.Failed != rb.Failed {
				diffs++
				fmt.Fprintf(w, "  %s: attempted/failed %d/%d -> %d/%d\n", where, ra.Attempted, ra.Failed, rb.Attempted, rb.Failed)
			}
			for _, k := range sortedKeys(ra.Digests) {
				if ra.Digests[k] != rb.Digests[k] {
					diffs++
					fmt.Fprintf(w, "  %s: digest of %s %.12s -> %.12s\n", where, k, ra.Digests[k], rb.Digests[k])
				}
			}
			for _, d := range s.PerLayer {
				ma, oka := ra.Metrics[d.Name]
				mb, okb := rb.Metrics[d.Name]
				if oka && okb && exactCount(d.Name) && ma.Value != mb.Value {
					diffs++
					fmt.Fprintf(w, "  %s: %s %v -> %v\n", where, d.Name, ma.Value, mb.Value)
				}
			}
		}
	}
	if diffs == 0 {
		fmt.Fprintln(w, "  identical")
	}
}

// exactCount reports whether a per-layer metric comes from the simulation's
// own counters, which repeat bit for bit, and not from the host clock.
func exactCount(name string) bool {
	switch {
	case strings.HasPrefix(name, "share."), strings.HasPrefix(name, "trace."), strings.HasPrefix(name, "harness."):
		return false
	case name == "sim.eventq_share", name == "sim.windowed_speedup_x",
		name == "sim.sharded_serial_slowdown_x", name == "sim.windowed_cpu_over_wall":
		return false
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
