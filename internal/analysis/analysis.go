// Package analysis runs the repo's determinism checks over type-checked
// packages. The build environment bakes in only the standard library, so it
// is stdlib-only: a package loader built on `go list -json` plus go/types,
// and a driver that applies the repo's `//lint:allow <analyzer> <reason>`
// suppression policy. The rules package's tests run both checks over every
// package of the module, so `go test ./...` fails on any finding.
//
// The checks exist because every bit-identity guarantee the repo ships
// rests on conventions — all randomness via sim.PartitionedRNG, no
// wall-clock on simulated paths, no map-order effects, cross-shard memory
// only through the verb protocol, every granted guard released exactly
// once — and tests and runtime gates hold most of them. The checks in
// internal/analysis/rules (detrand, maporder) enforce the two that no other
// test can see. See the README's "Determinism invariants" section for the
// rules and the allowlist policy.
package analysis

import "go/token"

// A Check is one named determinism rule: Run inspects one loaded package
// and reports each violation at its position. Name is what findings carry
// and what `//lint:allow <name> <reason>` waivers cite.
type Check struct {
	Name string
	Run  func(pkg *Package, report Report)
}

// A Report emits one finding at pos with a formatted message.
type Report func(pos token.Pos, format string, args ...any)
