package scenario

import (
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// TestFigure5Conclusions pins the paper's headline on the high-contention
// panels at test scale: in every cell with at least two threads per node —
// where a node's threads contend locally, which is what ALock's local cohort
// is for — ALock's throughput is at least MCS's and at least the spinlock's.
// It is the gate for a change that moves every schedule on purpose (a new tie
// order, a new cost): the digests move with it, and this says the figure's
// conclusion did not.
func TestFigure5Conclusions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc, ok := Get("paper/fig5-high-contention")
	if !ok {
		t.Fatal("paper/fig5-high-contention not registered")
	}
	cfgs := sc.Configs(harness.Scale{TestTiny: true})
	rs, err := sweep.Runner{Parallel: 4}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ nodes, threads int }
	tput := map[cell]map[string]float64{}
	for i, c := range cfgs {
		k := cell{c.Nodes, c.ThreadsPerNode}
		if tput[k] == nil {
			tput[k] = map[string]float64{}
		}
		tput[k][c.Algorithm] = rs[i].Throughput
	}
	cells := 0
	for k, algos := range tput {
		if k.threads < 2 {
			continue
		}
		cells++
		a := algos["alock"]
		t.Logf("%dx%d: alock %.0f, mcs %.0f, spinlock %.0f ops/s", k.nodes, k.threads, a, algos["mcs"], algos["spinlock"])
		for _, rival := range []string{"mcs", "spinlock"} {
			if r, ok := algos[rival]; !ok || a < r {
				t.Errorf("%dx%d: alock %.0f ops/s, %s %.0f (ran: %v)", k.nodes, k.threads, a, rival, r, ok)
			}
		}
	}
	if cells == 0 {
		t.Fatal("no cell with two or more threads per node")
	}
}
