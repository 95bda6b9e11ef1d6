// registry.go is the algorithm registry: the Provider contract, the ALock,
// spinlock and MCS providers, and the one ordered table (algorithms) that
// Names and ByName are driven from. Adding an algorithm is one api.Handle
// implementation plus one row in that table.
package locks

import (
	"fmt"
	"sort"
	"sync"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/mem"
)

// Provider constructs per-thread lock handles for one algorithm. A single
// Provider instance is shared by all threads of one experiment. Every lock's
// state fits its own line; NewHandle runs inside each thread and may
// allocate per-thread descriptors via the thread's own Ctx.
type Provider interface {
	Name() string
	NewHandle(ctx api.Ctx) api.Handle
}

// Footprint is implemented by providers whose handles allocate simulated
// memory beyond the lock lines, so a config's regions can be checked before
// its run: Lines returns the whole cache lines NewHandle allocates on each
// thread's node. A thread that holds k locks at once needs at most k times
// that (a descriptor per acquisition; ALock's two cohort seeds make that a
// bound, not an exact count), and the gate counts them so. Descriptors a
// handle adds for abandoned waiters are not counted.
type Footprint interface {
	Lines() int
}

// ALockProvider supplies the paper's ALock under a given budget
// configuration. It retains every handle it creates (O(threads) appends) so
// the algorithm's counters can be harvested after a run (StatsAggregator).
type ALockProvider struct {
	Cfg  core.Config
	name string // registry name of an ablation variant; empty means "alock"

	mu      sync.Mutex
	handles []*core.Handle
}

// NewALockProvider returns a provider with the paper's default budgets
// (local 5, remote 20; Section 6.1).
func NewALockProvider() *ALockProvider { return &ALockProvider{Cfg: core.DefaultConfig()} }

// Name implements Provider.
func (p *ALockProvider) Name() string {
	if p.name == "" {
		return "alock"
	}
	return p.name
}

// Lines implements Footprint: one seed descriptor per cohort.
func (p *ALockProvider) Lines() int { return 2 * core.DescWords / mem.WordsPerCacheLine }

// NewHandle implements Provider.
func (p *ALockProvider) NewHandle(ctx api.Ctx) api.Handle {
	h := core.NewHandle(ctx, p.Cfg)
	p.mu.Lock()
	p.handles = append(p.handles, h)
	p.mu.Unlock()
	return h
}

// AggregateStats implements StatsAggregator: the core stats summed over
// all handles created so far.
func (p *ALockProvider) AggregateStats() core.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s core.Stats
	for _, h := range p.handles {
		hs := h.Stats()
		s.Acquires += hs.Acquires
		s.Passes += hs.Passes
		s.Reacquires += hs.Reacquires
		s.LocalOps += hs.LocalOps
		s.RemoteOps += hs.RemoteOps
	}
	return s
}

// StatsAggregator is implemented by providers that can report algorithm-
// internal counters after a run.
type StatsAggregator interface {
	AggregateStats() core.Stats
}

// SpinProvider supplies the RDMA spinlock competitor.
type SpinProvider struct{}

// Name implements Provider.
func (SpinProvider) Name() string { return "spinlock" }

// NewHandle implements Provider.
func (SpinProvider) NewHandle(ctx api.Ctx) api.Handle { return NewSpinHandle(ctx) }

// AbortableTimed implements AbortableTimedProvider: the spinlock's timed
// acquire is a bounded poll that holds no waiter state at all.
func (SpinProvider) AbortableTimed() {}

// MCSProvider supplies the RDMA MCS queue lock competitor. Timed selects
// the abandonment-tolerant handoff protocol (run-wide mode).
type MCSProvider struct{ Timed bool }

// Name implements Provider.
func (MCSProvider) Name() string { return "mcs" }

// Lines implements Footprint: the thread's first queue descriptor.
func (MCSProvider) Lines() int { return MCSDescWords / mem.WordsPerCacheLine }

// NewHandle implements Provider.
func (p MCSProvider) NewHandle(ctx api.Ctx) api.Handle {
	h := NewMCSHandle(ctx)
	h.timed = p.Timed
	return h
}

// AbortableTimed implements AbortableTimedProvider: an MCS waiter's
// abandon CAS loses only to a grant already in flight from a releasing
// holder, never to one gated on a third party.
func (MCSProvider) AbortableTimed() {}

// Options parameterizes ByName.
type Options struct {
	// ALockConfig is used by the alock variants. Zero value means the
	// paper's defaults.
	ALockConfig core.Config
	// RW configures the reader/writer phase budgets of rw-budget and
	// rw-queue. Zero value means DefaultRWConfig(); a partially-set
	// config is rejected by RWConfig.Validate.
	RW RWConfig
	// Timed puts the queued algorithms (alock, mcs, rw-queue) into the
	// abandonment-tolerant handoff protocol required for token-API
	// deadlines. It is a run-wide mode: granters and waiters must speak
	// the same protocol. Off, every algorithm runs its paper-exact paths,
	// keeping feature-off schedules bit-identical.
	Timed bool
}

// algorithms is the registry, in documentation order. build receives the
// options with defaults applied and budgets validated (ALockConfig.Timed
// already mirrors Timed).
var algorithms = []struct {
	name, doc string
	build     func(o Options) Provider
}{
	{name: "alock", doc: "the paper's ALock (budgets from opts, default 5/20)",
		build: func(o Options) Provider { return &ALockProvider{Cfg: o.ALockConfig} }},
	{name: "alock-nobudget", doc: "ablation: effectively unbounded budgets",
		build: func(o Options) Provider {
			// Budgets so large they never reach zero within any experiment:
			// passing continues indefinitely, removing the fairness mechanism.
			o.ALockConfig.LocalBudget, o.ALockConfig.RemoteBudget = 1<<40, 1<<40
			return &ALockProvider{Cfg: o.ALockConfig, name: "alock-nobudget"}
		}},
	{name: "alock-symmetric", doc: "ablation: every access forced into the remote cohort",
		build: func(o Options) Provider {
			o.ALockConfig.ForceRemote = true
			return &ALockProvider{Cfg: o.ALockConfig, name: "alock-symmetric"}
		}},
	{name: "spinlock", doc: "competitor: repeat rCAS (all RDMA, loopback included)",
		build: func(Options) Provider { return SpinProvider{} }},
	{name: "mcs", doc: "competitor: RDMA MCS queue lock (all RDMA)",
		build: func(o Options) Provider { return MCSProvider{Timed: o.Timed} }},
	{name: "rw-budget", doc: "reader/writer lock with ALock-style phase budgets",
		build: func(o Options) Provider { return &RWBudgetProvider{Cfg: o.RW} }},
	{name: "rw-wpref", doc: "reader/writer lock, writer-preference baseline",
		build: func(Options) Provider { return RWPrefProvider{} }},
	{name: "rw-queue", doc: "MCS-style queued reader/writer lock (per-thread descriptors, reader groups, budget-bounded barging)",
		build: func(o Options) Provider { return &RWQueueProvider{Cfg: o.RW, Timed: o.Timed} }},
}

// Names lists every constructible algorithm, sorted.
func Names() []string {
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.name
	}
	sort.Strings(names)
	return names
}

// ByName constructs the named algorithm's provider; the algorithms table
// lists the names and what each one is.
func ByName(name string, opts Options) (Provider, error) {
	cfg := opts.ALockConfig
	if cfg.LocalBudget == 0 && cfg.RemoteBudget == 0 {
		def := core.DefaultConfig()
		def.ForceRemote = cfg.ForceRemote
		cfg = def
	} else if err := cfg.Validate(); err != nil {
		// A half-set pair would otherwise panic the first NewHandle, inside
		// the simulation; like the RW budgets below it is rejected for
		// every algorithm, not only the ones that read it.
		return nil, err
	}
	cfg.Timed = opts.Timed
	opts.ALockConfig = cfg
	if opts.RW == (RWConfig{}) {
		opts.RW = DefaultRWConfig()
	} else if err := opts.RW.Validate(); err != nil {
		// Validated for every algorithm, not just the two that consume the
		// budgets: a half-set pair is a mistake wherever it appears, and
		// accepting it for rw-wpref while rejecting it for rw-budget would
		// make the same flags behave differently across -algo values.
		return nil, err
	}
	for _, a := range algorithms {
		if a.name == name {
			return a.build(opts), nil
		}
	}
	return nil, fmt.Errorf("locks: unknown algorithm %q (have %v)", name, Names())
}
