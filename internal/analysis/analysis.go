// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface the repo's determinism lint suite
// needs. The build environment bakes in only the standard library, so
// instead of depending on x/tools the suite runs on this stdlib-only
// framework: the same Analyzer/Pass/Diagnostic shapes (so analyzers port
// verbatim if x/tools ever becomes available), a package loader built on
// `go list -json` plus go/types, and a driver that applies the repo's
// `//lint:allow <analyzer> <reason>` suppression policy.
//
// The suite exists because every bit-identity guarantee the repo ships
// rests on conventions — all randomness via sim.PartitionedRNG, no
// wall-clock on simulated paths, no map-order effects, cross-shard memory
// only through the verb protocol, every granted guard released exactly
// once — and tests and runtime gates hold most of them. The analyzers in
// internal/analysis/rules (detrand, maporder) enforce the two that no test
// can see. See the README's "Determinism invariants" section for the rules
// and the allowlist policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. It mirrors x/tools' analysis.Analyzer:
// Run inspects a single type-checked package through the Pass and reports
// findings via Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name> <reason>` suppression comments. It must be a
	// valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position in the package's file set and a
// human-readable message. The analyzer name is attached by the driver.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
