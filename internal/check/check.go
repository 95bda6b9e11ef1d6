// Package check is an explicit-state model checker that runs the shipping
// ALock of internal/core under every interleaving of its memory operations.
//
// The lock lives on node 0 and process p (1-based in reports) on node
// (p-1) % 2, so the cohorts split by parity as in the paper's Appendix A
// spec; both budgets are Config.Budget. Each process loops forever through
// AcquireTimed(l, Exclusive, 0), the critical section and ReleaseAcq, from
// two initial memories: victim 0 and victim 1 (the spec's victim ∈ {1,2}).
//
// The checker is the third api.Ctx, after internal/sim and internal/rt. It
// is synchronous: each Read, Write, CAS, RRead, RWrite and RCAS is one
// atomic transition the explorer picks (Table 1's torn RCAS is not
// modelled; ALock never mixes RMW classes on a word), SpinWhile(p, v) is one
// transition enabled once the word differs from v, and Fence and Pause are
// no-ops. Two more transitions enter acquire and leave the critical section.
//
// A state is the words in use plus, per process, an interned local state:
// its position (idle, acquire, critical section, release) and the Ctx
// return values since its operation began, which are replayed on a fresh
// handle to materialise it, once per local state.
//
// Poll stutter. A hand-written poll (ALock's two-word pReacquire loop with
// Pause, MCS's bare `for RRead(...) == waiting {}`) would add a local state
// per poll. The rule: if the transitions since local state A are a
// read-only block (reads, failed CASes) after which the process issues A's
// next transition again and, fed the block's results once more, repeats the
// block, the state after the block is A. A process whose solo run reads its
// way back to its own local state is blocked until one of those words
// changes, like SpinWhile and the spec's gwait, so enabledness stays a
// function of the state and the weak-fairness search needs no change.
//
// Soundness needs (1) a handle's Go state at the start of an operation to
// be a fresh handle's — true for untimed, one-lock ALock and MCS, whose
// pools then hold only their seed descriptors; Run fails on any Alloc after
// NewHandle — and (2) a poll loop's counters to feed only Pause. The timed
// protocol (Now, deadlines, zombies), SpinUntil, Work, WorkLoop, Free and
// Rand are out of scope and panic.
//
// Checked: mutual exclusion, deadlock-freedom, progress-possibility (every
// process can reach its critical section from every state) and starvation-
// freedom under weak fairness (no cycle keeps a process blocked while every
// other process steps or is blocked somewhere on it). A witness is the
// schedule from the initial memory: process, op, word and value.
package check

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"alock/internal/api"
	"alock/internal/core"
	"alock/internal/ptr"
)

const (
	// MaxProcs bounds the checkable configuration size.
	MaxProcs = 5
	// lineWords is a cache line. A node's line 0 is never allocated, so no
	// allocation is ptr.Null; the lock is the next line of node 0.
	lineWords = 8
	maxWords  = 24 // words a run may write (ALock at MaxProcs uses 23)
)

var (
	lockAddr = ptr.Pack(0, lineWords)
	errWords = fmt.Errorf("check: a handle writes more than %d words", maxWords)
)

// Config parameterizes a check run.
type Config struct {
	Procs  int // processes (2..MaxProcs)
	Budget int // both cohort budgets (>= 1)
	// MaxStates aborts exploration beyond this many states (0 = 50M).
	MaxStates int

	// newHandle builds one process's handle (nil: core.NewHandle).
	newHandle func(ctx api.Ctx, budget int) api.Handle
	// mutate, when set, rewrites every transition: from the op, the word
	// before it, and what it returns and leaves, the pair to use instead.
	mutate func(o op, cur, ret, next uint64) (uint64, uint64)
}

// Result reports what the exploration found.
type Result struct {
	States        int64
	Transitions   int64
	MutexViolated bool
	MutexWitness  string // the schedule to the violating state, if any
	Deadlocked    bool
	// DeadlockWitness is the schedule to the stuck state, or the starvation witness.
	DeadlockWitness string
	// StarvedProc is the first process (1-based) that cannot reach cs from
	// some reachable state or that a weakly fair cycle keeps blocked, or 0.
	StarvedProc int
}

// OK reports whether every checked property held.
func (r Result) OK() bool {
	return !r.MutexViolated && !r.Deadlocked && r.StarvedProc == 0
}

func (r Result) String() string {
	return fmt.Sprintf("states=%d transitions=%d mutex=%v deadlock=%v starved=%d",
		r.States, r.Transitions, !r.MutexViolated, r.Deadlocked, r.StarvedProc)
}

// state is one global state: each process's local state and the words in
// use, in the order the run first wrote them.
type state struct {
	loc [MaxProcs]int32
	mem [maxWords]uint64
}

// local is an interned local state: ops are the transitions taken since
// the operation began and, last, the one it takes next; rets are what the
// taken ones returned.
type local struct {
	parent int32
	ops    []op
	rets   []uint64
}

func (l *local) next() op { return l.ops[len(l.ops)-1] }

// pc names the position: idle, acq(uire), cs (critical section) or rel(ease).
func (l *local) pc() string {
	switch {
	case len(l.ops) == 1:
		return "idle"
	case l.next().kind == opExit:
		return "cs"
	case slices.ContainsFunc(l.ops, func(o op) bool { return o.kind == opExit }):
		return "rel"
	}
	return "acq"
}

// checker is one run: the processes and their local states, the words in
// use, and the reachable graph in breadth-first order.
type checker struct {
	cfg     Config
	brk     [2]uint64          // next free word per node
	init    map[ptr.Ptr]uint64 // written while the handles were first built
	threads []*thread
	locals  [][]local // per process; local 0 is idle
	kids    map[[3]uint64]int32
	slot    map[ptr.Ptr]int // word → its index in state.mem
	addrs   []ptr.Ptr
	seen    map[state]int32
	states  []state
	from    []edge // the state each state was first reached from, and who stepped
	succs   [][]edge
	enabled []uint8 // bit p: process p can step
	inCS    []uint8 // bit p: process p is in the critical section
}

// set writes v to a in s, giving a a slot on its first nonzero write.
func (m *checker) set(s *state, a ptr.Ptr, v uint64) {
	i, ok := m.slot[a]
	if !ok && v != 0 {
		if i = len(m.addrs); i == maxWords {
			panic(errWords)
		}
		m.slot[a], m.addrs = i, append(m.addrs, a)
	}
	if ok || v != 0 {
		s.mem[i] = v
	}
}

// result executes o in s: what it returns, and the word before and after.
func (m *checker) result(s *state, o op) (ret, cur, next uint64) {
	if i, ok := m.slot[o.addr]; ok {
		cur = s.mem[i]
	}
	ret, next = exec(o, cur)
	if m.cfg.mutate != nil {
		ret, next = m.cfg.mutate(o, cur, ret, next)
	}
	return ret, cur, next
}

// child is the local state process p reaches from l when its transition
// returns ret, replayed the first time it is asked for.
func (m *checker) child(p int, l int32, ret uint64) (c int32) {
	key := [3]uint64{uint64(p), uint64(l), ret}
	if c, ok := m.kids[key]; ok {
		return c
	}
	defer func() { m.kids[key] = c }()
	from := &m.locals[p][l]
	ops, rets := from.ops, append(slices.Clip(from.rets), ret)
	t, n := m.threads[p], len(rets)
	if t.replay(rets); t.next.kind == opBegin {
		return 0 // the operation ended: idle again
	}
	next := t.next
	for k, a := 1, l; k <= n && readOnly(ops[n-k], rets[n-k]); k, a = k+1, m.locals[p][a].parent {
		if ops[n-k] != next {
			continue
		}
		if t.replay(append(rets[:n:n], rets[n-k:]...)); t.next == next && slices.Equal(t.seen[n:], ops[n-k:]) {
			return a // poll stutter: the block led back to its start, local a
		}
	}
	m.locals[p] = append(m.locals[p], local{parent: l, ops: append(slices.Clip(ops), next), rets: rets})
	return int32(len(m.locals[p]) - 1)
}

// blocked reports whether process p cannot change s: its SpinWhile still
// reads v, or its solo run reads its way back to its local state.
func (m *checker) blocked(p int, s *state) bool {
	l := s.loc[p]
	var seen []int32
	for a := l; ; {
		o := m.locals[p][a].next()
		ret, _, _ := m.result(s, o)
		if o.kind == opSpin && a == l {
			return ret == o.val
		} else if !readOnly(o, ret) {
			return false
		}
		if seen, a = append(seen, a), m.child(p, a, ret); a == l || slices.Contains(seen, a) {
			return a == l
		}
	}
}

// Run explores the full state space of the configuration.
func Run(cfg Config) (res Result, err error) {
	if cfg.Procs < 2 || cfg.Procs > MaxProcs || cfg.Budget < 1 || cfg.Budget > 120 {
		return res, fmt.Errorf("check: need Procs in 2..%d and Budget in 1..120", MaxProcs)
	}
	cfg.MaxStates = cmp.Or(cfg.MaxStates, 50_000_000)
	defer func() {
		if r := recover(); r == errAlloc || r == errWords {
			err = r.(error)
		} else if r != nil {
			panic(r)
		}
	}()
	if cfg.newHandle == nil {
		cfg.newHandle = func(ctx api.Ctx, b int) api.Handle {
			return core.NewHandle(ctx, core.Config{LocalBudget: int64(b), RemoteBudget: int64(b)})
		}
	}
	m := &checker{cfg: cfg, brk: [2]uint64{2 * lineWords, lineWords}, init: map[ptr.Ptr]uint64{},
		kids: map[[3]uint64]int32{}, slot: map[ptr.Ptr]int{}, seen: map[state]int32{}}
	for p := 0; p < cfg.Procs; p++ {
		t := &thread{m: m, id: p}
		t.replay(nil) // builds the handle: its setup writes are the initial memory
		m.threads = append(m.threads, t)
		m.locals = append(m.locals, []local{{ops: []op{{kind: opBegin}}}})
	}
	victim := core.VictimPtr(lockAddr)
	m.init[victim] = 0
	addrs := slices.Sorted(maps.Keys(m.init))
	for _, v := range []uint64{0, 1} {
		var s state
		m.init[victim] = v
		for _, a := range addrs {
			m.set(&s, a, m.init[a])
		}
		m.add(s, edge{to: -1})
	}

	for u := int32(0); int(u) < len(m.states); u++ {
		s := m.states[u]
		var enabled, inCS uint8
		var out []edge
		for p, l := range s.loc[:cfg.Procs] {
			o := m.locals[p][l].next()
			if o.kind == opExit {
				inCS |= 1 << p
			}
			if m.blocked(p, &s) {
				continue
			}
			enabled |= 1 << p
			ret, cur, next := m.result(&s, o)
			succ := s
			if succ.loc[p] = m.child(p, l, ret); next != cur {
				m.set(&succ, o.addr, next)
			}
			out = append(out, edge{to: m.add(succ, edge{u, uint8(p)}), actor: uint8(p)})
			if len(m.states) > cfg.MaxStates {
				return res, fmt.Errorf("check: state space exceeds %d states", cfg.MaxStates)
			}
		}
		res.Transitions += int64(len(out))
		m.succs, m.enabled, m.inCS = append(m.succs, out), append(m.enabled, enabled), append(m.inCS, inCS)
		if inCS&(inCS-1) != 0 && !res.MutexViolated {
			res.MutexViolated, res.MutexWitness = true, m.witness(u)
		}
		if enabled == 0 && !res.Deadlocked {
			res.Deadlocked, res.DeadlockWitness = true, m.witness(u)
		}
	}
	res.States = int64(len(m.states))
	if !res.MutexViolated && !res.Deadlocked {
		res.StarvedProc, res.DeadlockWitness = m.starvation()
	}
	return res, nil
}

// edge is one transition: target state and acting process.
type edge struct {
	to    int32
	actor uint8
}

func (m *checker) add(s state, from edge) int32 {
	if id, ok := m.seen[s]; ok {
		return id
	}
	m.seen[s], m.states, m.from = int32(len(m.states)), append(m.states, s), append(m.from, from)
	return int32(len(m.states) - 1)
}

// witness lists the schedule from an initial memory (its nonzero words) to
// state u, then every process's position in u.
func (m *checker) witness(u int32) string {
	var b strings.Builder
	m.schedule(&b, u)
	b.WriteString(" ⇒")
	for p, l := range m.states[u].loc[:m.cfg.Procs] {
		fmt.Fprintf(&b, " p%d{pc=%s}", p+1, m.locals[p][l].pc())
	}
	return b.String()
}

func (m *checker) schedule(b *strings.Builder, u int32) {
	if f := m.from[u]; f.to >= 0 {
		m.schedule(b, f.to)
		s := &m.states[f.to]
		o := m.locals[f.actor][s.loc[f.actor]].next()
		ret, _, _ := m.result(s, o)
		fmt.Fprintf(b, "; p%d %s", f.actor+1, o.format(ret))
		return
	}
	b.WriteString("initial")
	for i, v := range m.states[u].mem[:len(m.addrs)] {
		if v != 0 {
			fmt.Fprintf(b, " %v=%s", m.addrs[i], value(v))
		}
	}
}

// starvation returns the first process that cannot reach its critical
// section from some state, or that a weakly fair cycle keeps blocked, and
// the witness.
func (m *checker) starvation() (int, string) {
	n := len(m.states)
	preds := make([][]int32, n)
	for u, out := range m.succs {
		for _, ed := range out {
			preds[ed.to] = append(preds[ed.to], int32(u))
		}
	}
	for p := 0; p < m.cfg.Procs; p++ {
		reached := make([]bool, n)
		var q []int32
		for u := range m.states {
			if m.inCS[u]&(1<<p) != 0 {
				reached[u], q = true, append(q, int32(u))
			}
		}
		for len(q) > 0 {
			for _, w := range preds[q[0]] {
				if !reached[w] {
					reached[w], q = true, append(q, w)
				}
			}
			q = q[1:]
		}
		if u := slices.Index(reached, false); u >= 0 {
			return p + 1, fmt.Sprintf("p%d cannot reach cs after %s", p+1, m.witness(int32(u)))
		}
		// Weak fairness: a component of the states where p is blocked is a
		// fair cycle if it has an internal edge and every other process
		// steps on one or is blocked in some member (a run through that
		// state owes it no step).
		comp, members := m.sccs(p)
		for _, ms := range members {
			var steps, blockedSomewhere uint8
			for _, u := range ms {
				blockedSomewhere |= ^m.enabled[u]
				for _, ed := range m.succs[u] {
					if comp[ed.to] == comp[u] {
						steps |= 1 << ed.actor
					}
				}
			}
			if all := (uint8(1)<<m.cfg.Procs - 1) &^ (1 << p); steps != 0 && (steps|blockedSomewhere)&all == all {
				return p + 1, "weakly-fair starvation cycle through " + m.witness(ms[0])
			}
		}
	}
	return 0, ""
}

// sccs computes the strongly connected components (Tarjan) of the states
// where process p is blocked: each state's component (0 outside), members.
func (m *checker) sccs(p int) ([]int32, [][]int32) {
	n := len(m.states)
	index, low, comp := make([]int32, n), make([]int32, n), make([]int32, n)
	in := func(v int32) bool { return m.enabled[v]&(1<<p) == 0 }
	var stack []int32
	var members [][]int32
	var next int32
	var visit func(v int32)
	visit = func(v int32) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		for _, ed := range m.succs[v] {
			switch w := ed.to; {
			case !in(w):
			case index[w] == 0:
				visit(w)
				low[v] = min(low[v], low[w])
			case comp[w] == 0: // on the stack
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			members = append(members, slices.Clone(stack[i:]))
			for _, w := range stack[i:] {
				comp[w] = int32(len(members))
			}
			stack = stack[:i]
		}
	}
	for v := range int32(n) {
		if in(v) && index[v] == 0 {
			visit(v)
		}
	}
	return comp, members
}
