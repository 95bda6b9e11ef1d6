package main

import (
	"slices"
	"time"
)

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(xs []float64) metric {
	return metric{Value: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs)}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is what a user of the simulator feels: host time per simulated
// event and per simulated op, memory, and set-up. Timings are medians over
// the run's passes. Peak RSS is the largest of any child the run started,
// warm-ups included: a sweep's peak depends on whether the GC frees one
// config's regions before the next config touches its own, and the largest
// of several sweeps is steadier than any one of them.
func endToEnd(timed, warm []passRun) map[string]metric {
	var nsPerEvent, opsPerS, setup []float64
	var rssKiB int64
	for _, p := range timed {
		events, ops := p.sums()
		nsPerEvent = append(nsPerEvent, ratio(float64(p.wall.Nanoseconds()), float64(events)))
		opsPerS = append(opsPerS, ratio(float64(ops), p.wall.Seconds()))
		rssKiB = max(rssKiB, p.rssKiB)
	}
	for _, p := range warm {
		setup = append(setup, p.wall.Seconds())
		rssKiB = max(rssKiB, p.rssKiB)
	}
	return map[string]metric{
		"host_ns_per_event":  summarize(nsPerEvent),
		"sim_ops_per_host_s": summarize(opsPerS),
		"peak_rss_mib":       summarize([]float64{float64(rssKiB) / 1024}),
		"setup_s":            summarize(setup),
	}
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	timed       []passRun
	profiled    passRun
	startupS    float64
	variantWall map[string]time.Duration // by variant name; empty without variants
	failed      int
	mismatches  int
}

// perLayer turns one traced run into the per-layer metrics: host self-time
// shares from the CPU profiles, and exact counts from the result JSON of the
// first timed pass. Counts that a workload does not exercise are 0.
func perLayer(in layerInput) map[string]float64 {
	m := map[string]float64{}

	// Host self time by layer, summed over the profiled children.
	self := map[string]float64{}
	for _, c := range in.profiled.children {
		for _, k := range append(buckets(), eventqKey) {
			self[k] += c.self[k]
		}
	}
	var total float64
	for _, b := range buckets() {
		total += self[b]
	}
	for _, b := range buckets() {
		m["share."+b] = ratio(self[b], total)
	}
	m["sim.eventq_share"] = ratio(self[eventqKey], total)

	var walls []float64
	var wall, cpu time.Duration
	for _, p := range in.timed {
		walls = append(walls, p.wall.Seconds())
		wall += p.wall
		cpu += p.cpu
	}
	untraced := median(walls)
	m["trace.overhead_frac"] = ratio(in.profiled.wall.Seconds(), untraced) - 1
	m["harness.cpu_over_wall"] = ratio(cpu.Seconds(), wall.Seconds())
	m["harness.startup_s"] = in.startupS
	m["harness.failed_configs"] = float64(in.failed)
	m["sim.digest_mismatches"] = float64(in.mismatches)

	// Executor comparison: the timed passes ran on two windowed workers.
	m["sim.windowed_speedup_x"] = ratio(in.variantWall[flatQueue].Seconds(), untraced)
	m["sim.sharded_serial_slowdown_x"] = ratio(in.variantWall[shardedSerial].Seconds(), in.variantWall[flatQueue].Seconds())
	m["sim.windowed_cpu_over_wall"] = 0
	if len(in.variantWall) > 0 {
		m["sim.windowed_cpu_over_wall"] = m["harness.cpu_over_wall"]
	}

	rs := in.timed[0].results()
	var events, ops, verbs, qpcMiss, slowdowns, maxBacklog int64
	var acquires, passes, reacquires, local, remote int64
	var timeouts, commits, aborts, retries, late, fenced int64
	var offered, served, shed, maxQueue, svcEvents, queueP99, acquireP99, holdP99 int64
	var saturation float64
	tput := map[string]float64{} // simulated throughput at 16 nodes x 12 threads
	var alockP99 int64
	for _, r := range rs {
		events += r.Events
		ops += r.Ops
		verbs += r.NIC.Verbs
		qpcMiss += r.NIC.QPCMisses
		slowdowns += r.NIC.Slowdowns
		maxBacklog = max(maxBacklog, r.NIC.MaxBacklogNS)
		acquires += r.Lock.Acquires
		passes += r.Lock.Passes
		reacquires += r.Lock.Reacquires
		local += r.Lock.LocalOps
		remote += r.Lock.RemoteOps
		timeouts += r.Timeouts
		commits += r.TxnCommits
		aborts += r.TxnAborts
		retries += r.TxnRetries
		late += r.LateAcquires
		fenced += r.FencedReleases
		if r.Config.Nodes == 16 && r.Config.ThreadsPerNode == 12 {
			tput[r.Config.Algorithm] = r.Throughput
			if r.Config.Algorithm == "alock" {
				alockP99 = r.Latency.P99NS
			}
		}
		if s := r.Svc; s != nil {
			offered += s.TotalOffered
			served += s.TotalServed
			shed += s.TotalShed
			svcEvents += r.Events
			maxQueue = max(maxQueue, s.MaxQueueLen)
			queueP99 = max(queueP99, s.QueueWait.P99NS)
			acquireP99 = max(acquireP99, s.AcquireWait.P99NS)
			holdP99 = max(holdP99, s.HoldTime.P99NS)
			if r.Config.Algorithm == "alock" {
				saturation = max(saturation, s.GoodputOPS)
			}
		}
	}
	m["sim.events"] = float64(events)
	m["sim.events_per_op"] = ratio(float64(events), float64(ops))
	m["scenario.configs"] = float64(len(rs))

	m["nic.verbs_per_op"] = ratio(float64(verbs), float64(ops))
	m["nic.qpc_miss_frac"] = ratio(float64(qpcMiss), float64(verbs))
	m["nic.slowdowns"] = float64(slowdowns)
	m["nic.max_backlog_ns"] = float64(maxBacklog)

	m["core.acquires"] = float64(acquires)
	m["core.pass_frac"] = ratio(float64(passes), float64(acquires))
	m["core.reacquire_frac"] = ratio(float64(reacquires), float64(acquires))
	m["core.local_frac"] = ratio(float64(local), float64(local+remote))
	m["core.alock_vs_spinlock_x"] = ratio(tput["alock"], tput["spinlock"])
	m["core.alock_vs_mcs_x"] = ratio(tput["alock"], tput["mcs"])
	m["core.alock_p99_ns"] = float64(alockP99)

	m["workload.ops"] = float64(ops)
	m["workload.timeouts"] = float64(timeouts)
	m["workload.txn_commits"] = float64(commits)
	m["workload.txn_abort_frac"] = ratio(float64(aborts), float64(commits+aborts))
	m["workload.txn_retries"] = float64(retries)
	m["locks.late_acquires"] = float64(late)
	m["locks.fenced_releases"] = float64(fenced)

	m["cluster.offered"] = float64(offered)
	m["cluster.served"] = float64(served)
	m["cluster.shed_frac"] = ratio(float64(shed), float64(offered))
	m["cluster.max_queue_len"] = float64(maxQueue)
	m["cluster.queue_wait_p99_ns"] = float64(queueP99)
	m["cluster.acquire_wait_p99_ns"] = float64(acquireP99)
	m["cluster.hold_p99_ns"] = float64(holdP99)
	m["cluster.alock_saturation_goodput_ops_s"] = saturation
	m["cluster.events_per_served_op"] = ratio(float64(svcEvents), float64(served))
	return m
}
