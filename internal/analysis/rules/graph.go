package rules

import (
	"sync"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
)

// graphCache memoizes the call graph per loaded package set, so the two
// interprocedural analyzers share one build instead of each paying the
// fixpoint cost. The key is the identity of the package set (first
// package pointer + length): within one process a given set is loaded
// once, and distinct fixture sets never alias.
var graphCache struct {
	sync.Mutex
	key   *analysis.Package
	count int
	graph *callgraph.Graph
}

// moduleGraph returns the call graph for a module pass's package set,
// building it on first use.
func moduleGraph(mp *analysis.ModulePass) *callgraph.Graph {
	graphCache.Lock()
	defer graphCache.Unlock()
	var key *analysis.Package
	if len(mp.Pkgs) > 0 {
		key = mp.Pkgs[0]
	}
	if graphCache.graph != nil && graphCache.key == key && graphCache.count == len(mp.Pkgs) {
		return graphCache.graph
	}
	g := callgraph.Build(mp.Pkgs)
	graphCache.key = key
	graphCache.count = len(mp.Pkgs)
	graphCache.graph = g
	return g
}
