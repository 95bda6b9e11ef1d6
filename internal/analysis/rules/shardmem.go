package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"alock/internal/analysis"
)

// memPkgPath is the import path of the memory substrate package whose
// accessors shardmem polices.
const memPkgPath = "alock/internal/mem"

// ShardmemScopes are the package-path prefixes the analyzer applies to:
// the engine and the lock algorithms, where a stray direct word access
// from the wrong timeline breaks the sharded executor's isolation proof.
var ShardmemScopes = []string{"alock/internal/sim", "alock/internal/locks"}

// ShardmemSanctioned is the accessor set allowed to resolve memory words
// through (*mem.Space).WordAddr / (*mem.Space).Region: the engine's verb
// executor, the step function that applies a thread's posted local
// operations (Read, Write, CAS, SpinWhile's polls and the untorn loopback
// verbs, run by the executor) and the torn loopback RCAS, which are exactly
// the sites the runtime access audit (sim.WithAccessAudit) instruments. Names are receiver-qualified but package-agnostic so the
// golden fixtures can model the shape.
var ShardmemSanctioned = map[string]bool{
	"(*Engine).execProtocol": true,
	"(*Thread).step":         true,
	"(*Thread).RCAS":         true,
}

// Shardmem is the static complement of the internal/mem runtime access
// audit. Inside the engine and lock packages, memory words may only be
// resolved by the sanctioned accessor set: those functions route every
// access through mem.Space, whose audit hook enforces at runtime that a
// shard never touches another node's words outside the verb protocol.
// (*mem.Region).WordAddr is flagged unconditionally in these packages —
// region-level access bypasses the Space audit hook entirely — and
// (*mem.Space).WordAddr / (*mem.Space).Region are flagged outside the
// sanctioned set. A function literal handed to a WorkLoop method is thread
// code whatever declaration encloses it — the engine runs it between events,
// bound to the calling thread's node, and api.Ctx lets it touch Go state only
// — so it is never inside the sanctioned set.
var Shardmem = &analysis.Analyzer{
	Name: "shardmem",
	Doc:  "restrict direct memory-word resolution in sim/locks to the sanctioned accessor set",
	Run:  runShardmem,
}

func runShardmem(pass *analysis.Pass) error {
	inScope := false
	for _, prefix := range ShardmemScopes {
		if pass.Pkg.Path() == prefix || strings.HasPrefix(pass.Pkg.Path(), prefix+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		analysis.EnclosingFuncs(f, func(name string, body *ast.BlockStmt) {
			scanShardmem(pass, name, body)
		})
	}
	return nil
}

// loopFuncName is the name shardmem gives a function literal passed to a
// WorkLoop method; it is in no sanctioned set.
const loopFuncName = "a WorkLoop function"

// isLoopCall reports whether call invokes a method named WorkLoop: the
// api.Ctx entry point that takes thread code to run between events.
func isLoopCall(info *types.Info, call *ast.CallExpr) bool {
	sel, _ := methodCall(info, call)
	return sel != nil && sel.Sel.Name == "WorkLoop"
}

// scanShardmem reports the direct word resolutions under node, attributing
// them to the function called name; literals passed to WorkLoop are scanned
// under loopFuncName instead.
func scanShardmem(pass *analysis.Pass, name string, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isLoopCall(pass.TypesInfo, call) {
			scanShardmem(pass, name, call.Fun)
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					scanShardmem(pass, loopFuncName, lit.Body)
				} else {
					scanShardmem(pass, name, arg)
				}
			}
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return true
		}
		recv := namedRecv(selection)
		method := selection.Obj().Name()
		switch {
		case isPkgType(recv, memPkgPath, "Region") && method == "WordAddr":
			pass.Reportf(sel.Pos(),
				"(*mem.Region).WordAddr bypasses the Space access audit: resolve through mem.Space in a sanctioned accessor")
		case isPkgType(recv, memPkgPath, "Space") && (method == "WordAddr" || method == "Region"):
			if !ShardmemSanctioned[name] {
				pass.Reportf(sel.Pos(),
					"mem.Space.%s outside the sanctioned accessor set (%s): cross-shard words must go through the verb protocol",
					method, name)
			}
		}
		return true
	})
}
