package harness

import (
	"testing"

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
