package harness

import (
	"testing"
	"time"

	"alock/internal/locktable"
)

// TestServiceResumeCensus counts what the open-loop lock service costs in
// coroutine switches: the svc/open-loop grid (alock, mcs, spinlock at 0.3-1.2x
// of nominal capacity; 16 nodes x 12 workers, seed 1) over an eighth of the
// full-scale measurement window, events and sim.Engine.Resumes summed over the
// configs. Run with -v to read the census; the assertion pins that a service
// whose threads mostly wait — idle workers polling their queue, generators
// between arrivals — switches to a thread on well under a quarter of its
// events. (Over the full window the grid is 20.74 M events and 2.83 M resumes,
// 0.14 per event; before the waits moved into api.Ctx.WorkLoop it was 9.05 M,
// 0.44.)
func TestServiceResumeCensus(t *testing.T) {
	scale := Scale{TestTiny: testing.Short()}
	warm, meas := scale.Windows()
	meas /= 8
	nodes, threads := scale.BigClusterNodes(), scale.ThreadCounts()
	workers := threads[len(threads)-1]
	var events, resumes uint64
	for _, algo := range []string{"alock", "mcs", "spinlock"} {
		for _, load := range []float64{0.3, 0.6, 0.9, 1.2} {
			p, err := Config{
				Algorithm: algo, Nodes: nodes, ThreadsPerNode: workers,
				Locks:       locktable.MediumContentionLocks,
				ArrivalRate: load * float64(nodes*workers) * 250_000,
				WarmupNS:    warm, MeasureNS: meas, Seed: scale.DefaultSeed(),
			}.withDefaults().check()
			if err != nil {
				t.Fatal(err)
			}
			s := p.prepare()
			res, err := s.runService()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-8s load %.1f: %8d events, %7d resumes, %6d served", algo, load, res.Events, s.e.Resumes(), res.Svc.TotalServed)
			events += res.Events
			resumes += s.e.Resumes()
		}
	}
	t.Logf("svc/open-loop: %d events, %d resumes (%.3f per event)", events, resumes, float64(resumes)/float64(events))
	if resumes*4 > events {
		t.Errorf("%d resumes over %d events: the service's waits are switching threads again", resumes, events)
	}
}

// TestTimedRWResumeCensus counts what the reader/writer and timed-acquire
// paths cost in coroutine switches: a reduced rw/storm-tails grid (rw-queue,
// rw-budget, rw-wpref; 70 % reads on 20 hot locks) plus a reduced
// fail/timeout-recovery one (alock, mcs, spinlock, rw-queue under 10 and 30 us
// acquire deadlines), 16 nodes x 8 threads, seed 1, a quarter of the full-scale
// operation target, events and sim.Engine.Resumes summed over the configs. Run
// with -v to read the census. The assertion pins that waiters on a local word
// — a queue descriptor, the group or state word on its home node — stay in the
// executor (api.Ctx.SpinUntil) and torn loopback RCASes resume their thread
// once: under 0.30 resumes per event. (The same grid, this file copied into
// the tree before those waits moved: 0.50; see CHANGES.md for both censuses.)
func TestTimedRWResumeCensus(t *testing.T) {
	scale := Scale{TestTiny: testing.Short()}
	warm, meas := scale.Windows()
	base := Config{
		Nodes: scale.BigClusterNodes(), ThreadsPerNode: 8,
		Locks: locktable.HighContentionLocks, LocalityPct: 90,
		WarmupNS: warm, MeasureNS: meas, TargetOps: scale.TargetOpsCount() / 4,
		Seed: scale.DefaultSeed(),
	}
	if scale.TestTiny {
		base.ThreadsPerNode = 2
	}
	var grid []Config
	for _, algo := range []string{"rw-queue", "rw-budget", "rw-wpref"} {
		c := base
		c.Algorithm, c.ReadPct = algo, 70
		grid = append(grid, c)
	}
	for _, timeout := range []time.Duration{10, 30} {
		for _, algo := range []string{"alock", "mcs", "spinlock", "rw-queue"} {
			c := base
			c.Algorithm, c.AcquireTimeout = algo, timeout*time.Microsecond
			grid = append(grid, c)
		}
	}
	var events, resumes uint64
	for _, c := range grid {
		p, err := c.withDefaults().check()
		if err != nil {
			t.Fatal(err)
		}
		s := p.prepare()
		res := s.runClosedLoop()
		t.Logf("%-9s reads %2d%% timeout %-4v: %8d events, %7d resumes, %6d ops, %5d timeouts",
			c.Algorithm, c.ReadPct, c.AcquireTimeout, res.Events, s.e.Resumes(), res.Ops, res.Timeouts)
		events += res.Events
		resumes += s.e.Resumes()
	}
	t.Logf("reduced rw/storm-tails + fail/timeout-recovery: %d events, %d resumes (%.3f per event)", events, resumes, float64(resumes)/float64(events))
	if resumes*100 >= events*30 {
		t.Errorf("%d resumes over %d events: waits on local words are switching threads again", resumes, events)
	}
}
