package rules

import (
	"go/ast"
	"go/types"

	"alock/internal/analysis"
)

// DetrandAllowedPkgs are the packages exempt from detrand: the only places
// in the tree where ambient randomness or the wall clock are the point.
// Everything else must draw randomness from sim.PartitionedRNG streams and
// time from the engine clock (api.Ctx.Now), or carry a per-site
// `//lint:allow detrand <reason>`.
var DetrandAllowedPkgs = map[string]bool{
	// PartitionedRNG internals: the one sanctioned rand.New in the repo.
	"alock/internal/sim": true,
	// Real-goroutine harness: real time and per-thread seeds are its job.
	"alock/internal/rt": true,
	// Benchmark CLI host metadata (report timestamps).
	"alock/cmd/bench": true,
}

// detrandBannedTime is the set of wall-clock time functions forbidden on
// simulated paths.
var detrandBannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// Detrand forbids nondeterministic randomness and wall-clock reads outside
// an explicit allowlist. Any call to a top-level math/rand (or /v2)
// function — rand.New, rand.NewSource, the global draw functions — is
// flagged: all randomness must come from sim.PartitionedRNG so feature-off
// configs replay bit-identically. rand.NewZipf is exempt (it is a
// deterministic transformer over a caller-supplied *rand.Rand), as are
// methods on *rand.Rand values (drawing from a stream you were handed is
// the sanctioned pattern). time.Now/Since/Until are likewise flagged:
// simulated paths must use engine time. _test.go files are exempt.
var Detrand = analysis.Check{Name: "detrand", Run: runDetrand}

func runDetrand(pkg *analysis.Package, report analysis.Report) {
	if DetrandAllowedPkgs[pkg.Types.Path()] {
		return
	}
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. on *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if fn.Name() == "NewZipf" {
					return true
				}
				report(sel.Pos(),
					"%s.%s is nondeterministic: draw from a sim.PartitionedRNG stream instead",
					fn.Pkg().Name(), fn.Name())
			case "time":
				if detrandBannedTime[fn.Name()] {
					report(sel.Pos(),
						"time.%s reads the wall clock: simulated paths must use engine time (Ctx.Now)",
						fn.Name())
				}
			}
			return true
		})
	}
}
