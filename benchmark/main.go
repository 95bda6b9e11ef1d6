// Command benchmark is the repo's regression benchmark. It drives the built
// cmd/alockbench binary through its flags and reads its -json output; it
// imports nothing from alock/internal, so renaming Go APIs cannot break it.
//
//	go run ./benchmark -workload fig5-closed -seed 1            one run, end-to-end metrics
//	go run ./benchmark -workload svc-open -trace 1 -out t.json  one traced run, per-layer metrics
//	go run ./benchmark -all -runs 10 -out set.json              a set: every workload, ten seeds
//	go run ./benchmark -compare a.json b.json                   verdict per workload x metric
//	go run ./benchmark -list                                    workloads and metrics
//
// Run it from the repository root. The last line of standard output of a
// single run is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed passed to every alockbench child")
		seconds = flag.Float64("seconds", defaultSeconds, "measure for about this long: timed passes repeat while another one fits")
		trace   = flag.Int("trace", 0, "1 = add a CPU-profiled pass and print the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", "", "also write the full result (metrics, digests, spans) to this file")
		all     = flag.Bool("all", false, "run every workload, -runs times each with seeds seed..seed+runs-1")
		runs    = flag.Int("runs", 10, "with -all: runs per workload")
		list    = flag.Bool("list", false, "list workloads and metrics and exit")
		compare = flag.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
	)
	flag.Parse()
	traced := *trace == 1

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	switch {
	case *list:
		printList(os.Stdout, spec)
		return nil
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		a, err := readSet(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readSet(flag.Arg(1))
		if err != nil {
			return err
		}
		printCompare(os.Stdout, spec, a, b)
		return nil
	case *all:
		set := resultSet{Host: hostInfo()}
		for _, w := range workloads {
			for i := 0; i < *runs; i++ {
				res, err := runWorkload(spec, w, *seed+int64(i), *seconds, traced)
				if err != nil {
					return err
				}
				printRun(os.Stdout, spec, res)
				set.Runs = append(set.Runs, *res)
			}
		}
		if !traced {
			printSpread(os.Stdout, spec, set)
		}
		return writeJSON(*out, set)
	}

	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", *name)
	}
	res, err := runWorkload(spec, w, *seed, *seconds, traced)
	if err != nil {
		return err
	}
	printRun(os.Stdout, spec, res)
	if err := writeJSON(*out, resultSet{Host: hostInfo(), Runs: []runResult{*res}}); err != nil {
		return err
	}
	// The result line: exactly these four keys, with the end-to-end metrics
	// when untraced and the per-layer metrics when traced.
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
