// Lint runs the repo's determinism analyzer suite (internal/analysis/rules)
// over the named packages and exits non-zero on any unsuppressed finding.
// The suite is two analyzers: detrand and maporder (-list prints them). The README's "Determinism invariants" table names,
// for each, a bug it catches that no test fails on, and the runtime gate
// that took over from each deleted analyzer.
//
// Usage:
//
//	go run ./cmd/lint ./...              # plain file:line:col findings
//	go run ./cmd/lint -github ./...      # GitHub Actions ::error annotations
//	go run ./cmd/lint -json ./...        # machine-readable findings
//	go run ./cmd/lint -only detrand,maporder ./...
//	go run ./cmd/lint -skip maporder ./...
//	go run ./cmd/lint -list              # describe the analyzers and exit
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
//
// Findings are suppressed per site with `//lint:allow <analyzer> <reason>`
// on the offending line or the line above; the reason is mandatory and
// directives naming unknown analyzers are findings themselves. On a full
// run, well-formed waivers that no longer suppress anything are reported
// as stale; subset runs (-only/-skip) cannot tell a stale waiver from one
// aimed at a deselected analyzer, so they skip that check. See the
// README's "Determinism invariants" section for the rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"alock/internal/analysis"
	"alock/internal/analysis/rules"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	github := flag.Bool("github", false, "emit findings as GitHub Actions error annotations")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and their rules, then exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to exclude")
	dir := flag.String("dir", ".", "directory to resolve package patterns from")
	flag.Parse()

	full := rules.All()
	if *list {
		for _, a := range full {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite, err := selectAnalyzers(full, *only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	opts := analysis.Options{ReportStale: len(suite) == len(full)}
	for _, a := range full {
		opts.Known = append(opts.Known, a.Name)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings, err := analysis.RunWith(pkgs, suite, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case *asJSON:
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *github:
		for _, f := range findings {
			fmt.Println(f.GitHub())
		}
	default:
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lint: %d package(s) clean\n", len(pkgs))
}

// selectAnalyzers applies -only then -skip to the full suite, rejecting
// names that are not part of it.
func selectAnalyzers(full []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(full))
	for _, a := range full {
		byName[a.Name] = a
	}
	parse := func(flagName, csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (see -list)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var suite []*analysis.Analyzer
	for _, a := range full {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		suite = append(suite, a)
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("-only/-skip selected no analyzers")
	}
	return suite, nil
}
