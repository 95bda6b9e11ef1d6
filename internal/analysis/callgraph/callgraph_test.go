package callgraph_test

import (
	"sort"
	"sync"
	"testing"

	"alock/internal/analysis"
	"alock/internal/analysis/callgraph"
)

var (
	graphOnce sync.Once
	graph     *callgraph.Graph
	graphErr  error
)

// fixtureGraph builds the graph over the testdata fixture once per
// process; the fixture is stdlib-free so no module load is needed.
func fixtureGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	graphOnce.Do(func() {
		l := analysis.NewLoader()
		pkg, err := l.CheckDir("testdata/src/graph", "graphtest")
		if err != nil {
			graphErr = err
			return
		}
		graph = callgraph.Build([]*analysis.Package{pkg})
	})
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return graph
}

// calleeNames returns the sorted names of a node's callees, restricted to
// the given edge kind.
func calleeNames(t *testing.T, g *callgraph.Graph, caller string, kind callgraph.Kind) []string {
	t.Helper()
	n := g.Lookup(caller)
	if n == nil {
		t.Fatalf("no node %q", caller)
	}
	var names []string
	for _, e := range n.Out {
		if e.Kind == kind {
			names = append(names, e.To.Name())
		}
	}
	sort.Strings(names)
	return names
}

func wantCallees(t *testing.T, g *callgraph.Graph, caller string, kind callgraph.Kind, want ...string) {
	t.Helper()
	got := calleeNames(t, g, caller, kind)
	if len(got) != len(want) {
		t.Fatalf("%s: callees = %v, want %v", caller, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: callees = %v, want %v", caller, got, want)
		}
	}
}

func TestDirectCall(t *testing.T) {
	wantCallees(t, fixtureGraph(t), "graphtest.callsDirect", callgraph.KindCall, "graphtest.direct")
}

func TestMethodCall(t *testing.T) {
	g := fixtureGraph(t)
	wantCallees(t, g, "graphtest.callsMethod", callgraph.KindCall, "graphtest.(Dog).Walk")
	wantCallees(t, g, "graphtest.(Dog).Walk", callgraph.KindCall, "graphtest.helper")
}

// TestInterfaceCall checks that a.Sound() resolves to every module type
// implementing Animal, value and pointer receivers both.
func TestInterfaceCall(t *testing.T) {
	wantCallees(t, fixtureGraph(t), "graphtest.callsInterface", callgraph.KindCall,
		"graphtest.(*Cat).Sound", "graphtest.(Dog).Sound")
}

// TestFuncValueFlows checks the assignment lattice: package-level var,
// call-arg→param binding, struct field store, and return flow.
func TestFuncValueFlows(t *testing.T) {
	g := fixtureGraph(t)
	wantCallees(t, g, "graphtest.callsFuncVar", callgraph.KindCall, "graphtest.direct")
	wantCallees(t, g, "graphtest.takesFn", callgraph.KindCall, "graphtest.helper")
	wantCallees(t, g, "graphtest.callsField", callgraph.KindCall, "graphtest.direct")
	wantCallees(t, g, "graphtest.callsReturned", callgraph.KindCall,
		"graphtest.gives", "graphtest.helper")
}

func TestGoDeferKinds(t *testing.T) {
	g := fixtureGraph(t)
	wantCallees(t, g, "graphtest.spawns", callgraph.KindGo, "graphtest.direct")
	wantCallees(t, g, "graphtest.spawns", callgraph.KindDefer, "graphtest.helper")
	wantCallees(t, g, "graphtest.spawns", callgraph.KindCall)
}

// TestLiteralNode checks that a function literal is its own node,
// reachable from its caller through the lattice.
func TestLiteralNode(t *testing.T) {
	g := fixtureGraph(t)
	n := g.Lookup("graphtest.literalCaller")
	if n == nil {
		t.Fatal("no literalCaller node")
	}
	reach := callgraph.Reachable([]*callgraph.Node{n})
	if d := g.Lookup("graphtest.direct"); !reach[d] {
		t.Fatal("direct not reachable through the literal")
	}
}

// TestReachableGoGate checks that `go` edges are never followed while defer
// edges always count.
func TestReachableGoGate(t *testing.T) {
	g := fixtureGraph(t)
	spawns := g.Lookup("graphtest.spawns")
	direct := g.Lookup("graphtest.direct")
	helper := g.Lookup("graphtest.helper")

	reach := callgraph.Reachable([]*callgraph.Node{spawns})
	if reach[direct] {
		t.Fatal("go callee reachable")
	}
	if !reach[helper] {
		t.Fatal("defer callee should always be reachable")
	}
}
