// Fairness: watch the budget machinery arbitrate between the cohorts.
//
// One ALock lives on node 0. Three threads on node 0 (the local cohort)
// and three threads on node 1 (the remote cohort) contend for it
// continuously on the deterministic simulator, and every critical section
// appends its cohort to a shared admission log. The demo prints the
// admission sequence, its run-length statistics, and what happens when the
// budget is removed — making the Section 5 fairness argument visible:
//
//   - with budgets (local 3 / remote 4), cohorts alternate in runs bounded
//     by roughly their budget;
//
//   - with the budget ablated (effectively infinite), a cohort with a
//     steady supply of waiters passes the lock internally indefinitely and
//     the other cohort is shut out for the duration.
//
//     go run ./examples/fairness
package main

import (
	"fmt"
	"strings"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/model"
	"alock/internal/sim"
)

const (
	threadsPerCohort = 3
	itersPerThread   = 250
)

// run contends both cohorts on one lock under the given budgets and
// returns the admission sequence (0 = local cohort, 1 = remote cohort).
func run(cfg core.Config) []int {
	e := sim.New(2, 1<<16, model.CX3(), 42)
	lock := e.Space().AllocLine(0)

	var log []int
	for node := 0; node < 2; node++ {
		for t := 0; t < threadsPerCohort; t++ {
			e.Spawn(node, func(ctx api.Ctx) {
				h := api.NewBlocking(core.NewHandle(ctx, cfg))
				cohort := int(api.Classify(ctx.NodeID(), lock))
				for i := 0; i < itersPerThread; i++ {
					h.Lock(lock)
					log = append(log, cohort) // inside the CS: admission order
					h.Unlock(lock)
				}
			})
		}
	}
	e.Run(1 << 62)
	return log
}

// runStats compresses the admission sequence into run-length statistics.
func runStats(log []int) (maxRun [2]int, switches int) {
	cur, n := -1, 0
	for _, c := range log {
		if c == cur {
			n++
		} else {
			if cur >= 0 {
				switches++
			}
			cur, n = c, 1
		}
		if n > maxRun[cur] {
			maxRun[cur] = n
		}
	}
	return maxRun, switches
}

func sketch(log []int, width int) string {
	if len(log) == 0 {
		return ""
	}
	var b strings.Builder
	step := len(log) / width
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(log); i += step {
		if log[i] == 0 {
			b.WriteByte('L')
		} else {
			b.WriteByte('r')
		}
	}
	return b.String()
}

func main() {
	fmt.Printf("one ALock, %d local + %d remote threads, %d acquisitions each\n\n",
		threadsPerCohort, threadsPerCohort, itersPerThread)

	budgeted := run(core.Config{LocalBudget: 3, RemoteBudget: 4})
	maxRun, switches := runStats(budgeted)
	fmt.Println("with budgets (local 3, remote 4):")
	fmt.Printf("  admissions (sampled): %s\n", sketch(budgeted, 64))
	fmt.Printf("  longest local run %d, longest remote run %d, %d cohort switches\n\n",
		maxRun[0], maxRun[1], switches)

	nobudget := run(core.Config{LocalBudget: 1 << 40, RemoteBudget: 1 << 40})
	maxRunNB, switchesNB := runStats(nobudget)
	fmt.Println("budget ablated (effectively infinite):")
	fmt.Printf("  admissions (sampled): %s\n", sketch(nobudget, 64))
	fmt.Printf("  longest local run %d, longest remote run %d, %d cohort switches\n\n",
		maxRunNB[0], maxRunNB[1], switchesNB)

	fmt.Println("the budget bounds how long one cohort may monopolize the lock;")
	fmt.Println("without it, whoever holds the MCS queue keeps passing internally.")
}
