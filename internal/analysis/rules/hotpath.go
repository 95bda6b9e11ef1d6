package rules

// HotPathRoots declares the functions whose transitive callees must stay
// allocation-free. This is the checked-in twin of what alloc_test.go
// probes dynamically (`testing.AllocsPerRun` over ProcessNextEvent, the
// Mallocs bound over whole runs): the steady-state event loop of both
// executors, from scheduling through dispatch. Perf PRs that add a new
// dispatch entry point extend this list; the allocfree analyzer reports a
// finding if a root name stops resolving, so renames can't silently
// shrink the proved surface.
//
// Names use the callgraph format: "pkgpath.Func" or
// "pkgpath.(*Recv).Method". A thread switch is a pair of ordinary calls —
// the executor's Thread.resume and the thread's Thread.suspend — joined by
// the coroutine functions iter.Pull hands out, which the callgraph cannot
// see through. Both sides are therefore rooted explicitly: the executor
// loops below, and the suspend side every blocking api.Ctx call funnels
// into. Workload code (the thread bodies behind iter.Pull) stays out of
// the proved set; `go` edges are not followed — the windowed pool's helper
// startup is per Run, priced separately from the per-event loop.
var HotPathRoots = []string{
	// Serial executor: the stepping API, one turn of the dispatch loop that
	// Run and the windowed executor's per-shard drain run to the end.
	"alock/internal/sim.(*Engine).Step",
	"alock/internal/sim.(*Engine).ProcessNextEvent",

	// Thread switch: the executor's resume, and the suspend side that
	// runs on the thread's coroutine.
	"alock/internal/sim.(*Thread).resume",
	"alock/internal/sim.(*Thread).suspend",

	// Local operations: posted on the coroutine (SpinWhile, SpinUntil and
	// WorkLoop are three of them), then completed and started one after
	// another by the executors' step between resumes. step runs the functions
	// handed to WorkLoop and SpinUntil, so those are in the proved set with
	// it: api.Ctx forbids them to allocate.
	"alock/internal/sim.(*Thread).post",
	"alock/internal/sim.(*Thread).SpinWhile",
	"alock/internal/sim.(*Thread).SpinUntil",
	"alock/internal/sim.(*Thread).WorkLoop",
	"alock/internal/sim.(*Thread).step",

	// Event queue: the typed 4-ary heap's steady-state operations.
	"alock/internal/sim.(*eventQueue).push",
	"alock/internal/sim.(*eventQueue).pop",
	"alock/internal/sim.(*eventQueue).min",

	// Windowed-parallel executor: the per-window dispatch loop and the
	// per-shard drain it fans out to.
	"alock/internal/sim.(*Engine).runWindowed",
	"alock/internal/sim.(*shard).runWindow",
}
