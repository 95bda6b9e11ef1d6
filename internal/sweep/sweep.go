// Package sweep fans a batch of experiment configurations out across the
// host's cores. Each configuration is one fully independent single-threaded
// simulation (internal/sim serializes its simulated threads internally), so
// a multi-config sweep — a paper figure, a scenario expansion, a parameter
// study — is embarrassingly parallel: N workers each pull the next config,
// run it to completion, and deposit the result at the config's input index.
//
// Determinism: a run's outcome depends only on its Config (the simulator is
// seeded, never on wall time), so the result slice is bit-identical no
// matter how many workers execute it or how the scheduler interleaves them.
// Only wall-clock time changes with Parallel.
//
// Concurrency composes through the process-wide execution-slot budget
// (internal/slots): each worker beyond the first needs an extra slot, so a
// parallel sweep of configs that themselves run the windowed executor on
// several workers multiplies to at most GOMAXPROCS running goroutines — the
// sweep layer and the engines draw from one pool. A worker gives its slot
// back as soon as it finds no config left, so the runs still going in a
// sweep's tail can widen onto the cores it frees (Config.EngineShards 0).
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"alock/internal/harness"
	"alock/internal/slots"
)

// WithEngineShards stamps the engine worker count onto every config of a
// sweep, so a whole scenario or figure runs the windowed executor on that
// many workers (0 leaves the configs alone, at auto width — one worker until
// a run's windows pay for more, then what the slot budget grants; a negative
// count is stamped like any other, for harness.Config.Validate to reject). Configs
// that ask for more than one worker but run serial (wait-die;
// harness.Config.RunsWindowed) are counted in one line on warn: results are
// bit-identical either way, the wall clock is not.
func WithEngineShards(cfgs []harness.Config, shards int, warn io.Writer) []harness.Config {
	if shards == 0 {
		return cfgs
	}
	serial := 0
	for i := range cfgs {
		cfgs[i].EngineShards = shards
		if shards >= 2 && !cfgs[i].RunsWindowed() {
			serial++
		}
	}
	if serial > 0 {
		fmt.Fprintf(warn, "engine-shards %d: %d of %d configs run serial: wait-die\n", shards, serial, len(cfgs))
	}
	return cfgs
}

// Progress describes one completed run, delivered to OnResult.
type Progress struct {
	// Index is the run's position in the input slice.
	Index int
	// Done and Total count completed vs submitted runs at callback time.
	Done, Total int
	// Result is the completed run's outcome (nil when the run failed).
	Result *harness.Result
	// Err is the run's error, if any.
	Err error
}

// Runner executes batches of harness configurations in parallel.
// The zero value runs on every core with no callbacks.
type Runner struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// OnResult, when non-nil, is invoked once per completed run, serialized
	// under an internal lock (callbacks never race). Completion order is
	// nondeterministic; use Progress.Index to correlate.
	OnResult func(Progress)
}

// workers resolves the effective worker count for n jobs.
func (r Runner) workers(n int) int {
	w := r.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every config and returns results in input order (results[i]
// belongs to cfgs[i], regardless of completion order). The error is the
// lowest-index run failure, or nil; runs after a failure still execute
// (their results are valid), mirroring how a sweep with one bad cell should
// not discard the rest of the grid.
func (r Runner) Run(cfgs []harness.Config) ([]harness.Result, error) {
	results := make([]harness.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}

	var (
		next atomic.Int64 // next job index to claim
		done int
		cbMu sync.Mutex // serializes OnResult and `done`
		wg   sync.WaitGroup
	)

	worker := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(cfgs) {
				return
			}
			res, err := harness.Run(cfgs[i])
			results[i], errs[i] = res, err

			cbMu.Lock()
			done++
			p := Progress{Index: i, Done: done, Total: len(cfgs), Err: err}
			if err == nil {
				p.Result = &results[i]
			}
			if r.OnResult != nil {
				r.OnResult(p)
			}
			cbMu.Unlock()
		}
	}

	// The Run caller's goroutine is one implicit execution slot; every
	// additional worker must win an extra slot so nested parallel layers
	// (sweep workers x engine shards) never oversubscribe the host, and
	// releases it when it runs out of configs. Winning zero extras degrades
	// to a serial sweep on this goroutine — results are identical either way.
	want := r.workers(len(cfgs))
	extra := slots.TryAcquire(want - 1)
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func() {
			defer wg.Done()
			defer slots.Release(1)
			worker()
		}()
	}
	worker() // the caller works too, slot-free
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: config %d: %w", i, err)
		}
	}
	return results, nil
}
