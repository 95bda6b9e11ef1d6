package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// defaultSeconds matches run_seconds in BENCHMARK.json: one full-scale pass
// of the three scenario workloads takes about this long on a 2-core host.
const defaultSeconds = 16

// spec mirrors BENCHMARK.json, the single source of metric names, units,
// directions and bounds. The code computes values by name and emits exactly
// the names the file lists.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// child is one alockbench invocation. -seed, -json and, on the profiled
// pass, -cpuprofile are appended when it runs.
type child struct {
	name string // span label and digest key
	args []string
}

// Variant names, which are also the span suffixes pass:shards0, pass:shards1.
const (
	flatQueue     = "shards0" // -engine-shards 0: the flat event queue
	shardedSerial = "shards1" // -engine-shards 1: per-node shards, merged serially
)

// variant is an extra pass the traced run makes to compare executors: the
// workload's configs on another -engine-shards setting.
type variant struct {
	name string
	pass []child
}

type workload struct {
	name     string
	warmup   []child // reduced scale; its wall time is setup_s
	pass     []child // full scale; timed
	variants []variant
}

// scenarios are registered sweeps, one child each, run on one core.
func scenarios(quick bool, names ...string) []child {
	var cs []child
	for _, n := range names {
		args := []string{"-scenario", n, "-parallel", "1"}
		if quick {
			args = append(args, "-quick")
		}
		cs = append(cs, child{name: n, args: args})
	}
	return cs
}

// windowed is the Figure-5 high-contention corner as six single-config
// children. Scenario configs carry TargetOps, which the harness silently
// degrades to the sharded-serial executor; -target-ops 0 is the only way the
// CLI reaches the windowed parallel executor.
func windowed(measure string, shards int) []child {
	var cs []child
	for _, algo := range []string{"alock", "mcs", "spinlock"} {
		for _, threads := range []int{8, 12} {
			cs = append(cs, child{
				name: fmt.Sprintf("%s-n16-t%d", algo, threads),
				args: []string{"-algo", algo, "-nodes", "16", "-threads", strconv.Itoa(threads),
					"-locks", "20", "-locality", "90", "-measure", measure, "-target-ops", "0",
					"-engine-shards", strconv.Itoa(shards)},
			})
		}
	}
	return cs
}

// workloads in run order. Why each is here is in BENCHMARK.json and the
// README; the warm-up lists are the same scenarios at -quick scale, trimmed
// to about two seconds so that three of them fit in a run.
var workloads = []workload{
	{
		name:   "fig5-closed",
		warmup: scenarios(true, "paper/fig5-high-contention"),
		pass:   scenarios(false, "paper/fig5-high-contention"),
	},
	{
		name:   "timed-rw-txn",
		warmup: scenarios(true, "rw/storm-tails", "deadlock/policy-compare", "deadlock/dining"),
		pass:   scenarios(false, "rw/storm-tails", "fail/timeout-recovery", "deadlock/policy-compare", "deadlock/dining"),
	},
	{
		name:   "svc-open",
		warmup: scenarios(true, "svc/open-loop"),
		pass:   scenarios(false, "svc/open-loop", "svc/shed-overload"),
	},
	{
		name:   "fig5-windowed",
		warmup: windowed("1ms", 2),
		pass:   windowed("8ms", 2),
		variants: []variant{
			{name: flatQueue, pass: windowed("8ms", 0)},
			{name: shardedSerial, pass: windowed("8ms", 1)},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// layers are the repo's modules that get their own share of host self time;
// every other alock/internal package lands in share.other.
var layers = []string{"sim", "core", "locks", "workload", "cluster", "nic", "mem", "stats",
	"harness", "sweep", "report", "scenario", "locktable", "slots"}

type host struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go"`
	OSArch    string `json:"os_arch"`
}

func hostInfo() host {
	return host{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

func printList(w io.Writer, s *spec) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range s.Workloads {
		fmt.Fprintf(w, "  %-14s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, d := range s.EndToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %s is better, bound %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range s.PerLayer {
		fmt.Fprintf(w, "  %-36s %-6s %s is better\n", d.Name, d.Unit, d.Better)
	}
}
