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
// executor and the step function that applies a thread's posted local
// operations (Read, Write, CAS, SpinWhile's and SpinUntil's polls and the
// loopback verbs, torn RCAS included, run by the executor), which are exactly
// the sites the runtime access audit (sim.WithAccessAudit) instruments. Names
// are receiver-qualified but package-agnostic so the golden fixtures can model
// the shape.
var ShardmemSanctioned = map[string]bool{
	"(*Engine).execProtocol": true,
	"(*Thread).step":         true,
}

// Shardmem is the static complement of the internal/mem runtime access
// audit. Inside the engine and lock packages, memory words may only be
// resolved by the sanctioned accessor set: those functions route every
// access through mem.Space, whose audit hook enforces at runtime that a
// shard never touches another node's words outside the verb protocol.
// (*mem.Region).WordAddr is flagged unconditionally in these packages —
// region-level access bypasses the Space audit hook entirely — and
// (*mem.Space).WordAddr / (*mem.Space).Region are flagged outside the
// sanctioned set. A function literal handed to a WorkLoop or SpinUntil method
// (ExecutorFuncs) is thread code whatever declaration encloses it — the
// engine runs it between events, bound to the calling thread's node, and
// api.Ctx lets it touch Go state only — so it is never inside the sanctioned
// set.
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

// executorFuncArg reports whether call invokes one of the ExecutorFuncs — the
// api.Ctx entry points that take thread code to run between events — and if so
// the index of the argument that is that code and the name shardmem gives a
// literal found there, which is in no sanctioned set.
func executorFuncArg(info *types.Info, call *ast.CallExpr) (arg int, name string, ok bool) {
	sel, _ := methodCall(info, call)
	if sel == nil {
		return 0, "", false
	}
	for _, m := range ExecutorFuncs {
		if sel.Sel.Name == m.Method {
			return m.Arg, "a " + m.Method + " function", true
		}
	}
	return 0, "", false
}

// scanShardmem reports the direct word resolutions under node, attributing
// them to the function called name; a literal passed to WorkLoop or SpinUntil
// as the code to run is scanned under that method's name instead.
func scanShardmem(pass *analysis.Pass, name string, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if at, handed, ok := executorFuncArg(pass.TypesInfo, call); ok {
				scanShardmem(pass, name, call.Fun)
				for i, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && i == at {
						scanShardmem(pass, handed, lit.Body)
					} else {
						scanShardmem(pass, name, arg)
					}
				}
				return false
			}
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
