package locks

import (
	"fmt"
	"sort"
	"sync"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// Provider constructs per-thread lock handles for one algorithm. A single
// Provider instance is shared by all threads of one experiment.
//
// Prepare runs once, before any thread starts, and may allocate per-lock
// side state (the filter and bakery baselines need O(threads) words per
// lock). NewHandle runs inside each thread and may allocate per-thread
// descriptors via the thread's own Ctx.
type Provider interface {
	Name() string
	Prepare(space *mem.Space, locks []ptr.Ptr)
	NewHandle(ctx api.Ctx) api.Locker
}

// ALockProvider supplies the paper's ALock under a given budget
// configuration.
type ALockProvider struct {
	Cfg core.Config
}

// NewALockProvider returns a provider with the paper's default budgets
// (local 5, remote 20; Section 6.1).
func NewALockProvider() *ALockProvider { return &ALockProvider{Cfg: core.DefaultConfig()} }

// Name implements Provider.
func (p *ALockProvider) Name() string {
	if p.Cfg.ForceRemote {
		return "alock-symmetric"
	}
	return "alock"
}

// Prepare implements Provider (no shared per-lock state: an ALock is fully
// contained in its 64-byte line).
func (p *ALockProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (p *ALockProvider) NewHandle(ctx api.Ctx) api.Locker {
	return core.NewHandle(ctx, p.Cfg)
}

// NewTimedHandle implements TimedProvider.
func (p *ALockProvider) NewTimedHandle(ctx api.Ctx) TimedHandle {
	return alockTimed{h: core.NewHandle(ctx, p.Cfg)}
}

// SpinProvider supplies the RDMA spinlock competitor.
type SpinProvider struct{}

// Name implements Provider.
func (SpinProvider) Name() string { return "spinlock" }

// Prepare implements Provider.
func (SpinProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (SpinProvider) NewHandle(ctx api.Ctx) api.Locker { return NewSpinHandle(ctx) }

// NewTimedHandle implements TimedProvider.
func (SpinProvider) NewTimedHandle(ctx api.Ctx) TimedHandle {
	return spinTimed{h: NewSpinHandle(ctx)}
}

// AbortableTimed implements AbortableTimedProvider: the spinlock's timed
// acquire is a bounded poll that holds no waiter state at all.
func (SpinProvider) AbortableTimed() {}

// MCSProvider supplies the RDMA MCS queue lock competitor. Timed selects
// the abandonment-tolerant handoff protocol (run-wide mode).
type MCSProvider struct{ Timed bool }

// Name implements Provider.
func (MCSProvider) Name() string { return "mcs" }

// Prepare implements Provider.
func (MCSProvider) Prepare(*mem.Space, []ptr.Ptr) {}

// NewHandle implements Provider.
func (p MCSProvider) NewHandle(ctx api.Ctx) api.Locker { return p.newHandle(ctx) }

// NewTimedHandle implements TimedProvider.
func (p MCSProvider) NewTimedHandle(ctx api.Ctx) TimedHandle {
	return mcsTimed{h: p.newHandle(ctx)}
}

// AbortableTimed implements AbortableTimedProvider: an MCS waiter's
// abandon CAS loses only to a grant already in flight from a releasing
// holder, never to one gated on a third party.
func (MCSProvider) AbortableTimed() {}

func (p MCSProvider) newHandle(ctx api.Ctx) *MCSHandle {
	if p.Timed {
		return NewTimedMCSHandle(ctx)
	}
	return NewMCSHandle(ctx)
}

// trackedProvider wraps ALockProvider to retain handles for stats
// harvesting after a run.
type trackedALockProvider struct {
	*ALockProvider
	mu      sync.Mutex
	handles []*core.Handle
}

func (p *trackedALockProvider) NewHandle(ctx api.Ctx) api.Locker {
	return p.newTracked(ctx)
}

// NewTimedHandle implements TimedProvider (the tracked handle keeps
// feeding AggregateStats).
func (p *trackedALockProvider) NewTimedHandle(ctx api.Ctx) TimedHandle {
	return alockTimed{h: p.newTracked(ctx)}
}

func (p *trackedALockProvider) newTracked(ctx api.Ctx) *core.Handle {
	h := core.NewHandle(ctx, p.Cfg)
	p.mu.Lock()
	p.handles = append(p.handles, h)
	p.mu.Unlock()
	return h
}

// AggregateStats sums the core stats over all handles created so far.
func (p *trackedALockProvider) AggregateStats() core.Stats {
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

// RWProvider is implemented by providers whose algorithm supports shared
// (read) acquisitions natively. Providers without it still run reader/
// writer workloads through RWHandleFor's exclusive degradation.
type RWProvider interface {
	Provider
	NewRWHandle(ctx api.Ctx) api.RWLocker
}

// RWHandleFor returns a reader/writer handle for any provider: the native
// one when the algorithm supports shared mode, otherwise the exclusive
// degradation (RLock behaves as Lock — correct, but readers serialize).
func RWHandleFor(p Provider, ctx api.Ctx) api.RWLocker {
	if rw, ok := p.(RWProvider); ok {
		return rw.NewRWHandle(ctx)
	}
	return api.ExclusiveRW{L: p.NewHandle(ctx)}
}

// NewTrackedALockProvider returns an ALock provider that also satisfies
// StatsAggregator.
func NewTrackedALockProvider(cfg core.Config) Provider {
	return &trackedALockProvider{ALockProvider: &ALockProvider{Cfg: cfg}}
}

// Options parameterizes ByName.
type Options struct {
	// ALockConfig is used by the alock variants. Zero value means the
	// paper's defaults.
	ALockConfig core.Config
	// RW configures the reader/writer phase budgets of rw-budget and
	// rw-queue. Zero value means DefaultRWConfig(); a partially-set
	// config is rejected by RWConfig.Validate.
	RW RWConfig
	// Threads is the total thread count, required by the filter and
	// bakery baselines.
	Threads int
	// Timed puts the queued algorithms (alock, mcs, rw-queue) into the
	// abandonment-tolerant handoff protocol required for token-API
	// deadlines. It is a run-wide mode: granters and waiters must speak
	// the same protocol. Off, every algorithm runs its paper-exact paths,
	// keeping feature-off schedules bit-identical.
	Timed bool
}

// Names lists every constructible algorithm, sorted.
func Names() []string {
	names := []string{
		"alock", "alock-nobudget", "alock-symmetric",
		"spinlock", "mcs", "filter", "bakery",
		"rw-budget", "rw-wpref", "rw-queue",
	}
	sort.Strings(names)
	return names
}

// ByName constructs the named algorithm's provider.
//
//	alock           — the paper's ALock (budgets from opts, default 5/20)
//	alock-nobudget  — ablation: effectively unbounded budgets
//	alock-symmetric — ablation: every access forced into the remote cohort
//	spinlock        — competitor: repeat rCAS (all RDMA, loopback included)
//	mcs             — competitor: RDMA MCS queue lock (all RDMA)
//	filter          — related work: n-thread Peterson filter over RDMA
//	bakery          — related work: Lamport's bakery over RDMA
//	rw-budget       — reader/writer lock with ALock-style phase budgets
//	rw-wpref        — reader/writer lock, writer-preference baseline
//	rw-queue        — MCS-style queued reader/writer lock (per-thread
//	                  descriptors, reader groups, budget-bounded barging)
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
	rwCfg := opts.RW
	if rwCfg == (RWConfig{}) {
		rwCfg = DefaultRWConfig()
	} else if err := rwCfg.Validate(); err != nil {
		// Validated for every algorithm, not just the two that consume the
		// budgets: a half-set pair is a mistake wherever it appears, and
		// accepting it for rw-wpref while rejecting it for rw-budget would
		// make the same flags behave differently across -algo values.
		return nil, err
	}
	cfg.Timed = opts.Timed
	switch name {
	case "alock":
		return NewTrackedALockProvider(cfg), nil
	case "alock-nobudget":
		nb := cfg
		// Budgets so large they never reach zero within any experiment:
		// passing continues indefinitely, removing the fairness mechanism.
		nb.LocalBudget = 1 << 40
		nb.RemoteBudget = 1 << 40
		return &nobudgetProvider{NewTrackedALockProvider(nb).(*trackedALockProvider)}, nil
	case "alock-symmetric":
		sym := cfg
		sym.ForceRemote = true
		return &symmetricProvider{NewTrackedALockProvider(sym).(*trackedALockProvider)}, nil
	case "spinlock":
		return SpinProvider{}, nil
	case "mcs":
		return MCSProvider{Timed: opts.Timed}, nil
	case "rw-budget":
		return &RWBudgetProvider{Cfg: rwCfg}, nil
	case "rw-wpref":
		return RWPrefProvider{}, nil
	case "rw-queue":
		return &RWQueueProvider{Cfg: rwCfg, Timed: opts.Timed}, nil
	case "filter":
		if opts.Threads < 1 {
			return nil, fmt.Errorf("locks: %q requires Options.Threads", name)
		}
		return NewFilterProvider(opts.Threads), nil
	case "bakery":
		if opts.Threads < 1 {
			return nil, fmt.Errorf("locks: %q requires Options.Threads", name)
		}
		return NewBakeryProvider(opts.Threads), nil
	default:
		return nil, fmt.Errorf("locks: unknown algorithm %q (have %v)", name, Names())
	}
}

// nobudgetProvider / symmetricProvider rename wrapped ALock providers
// (the concrete embed keeps the TimedProvider and StatsAggregator methods
// promoted).
type nobudgetProvider struct{ *trackedALockProvider }

func (nobudgetProvider) Name() string { return "alock-nobudget" }

type symmetricProvider struct{ *trackedALockProvider }

func (symmetricProvider) Name() string { return "alock-symmetric" }
