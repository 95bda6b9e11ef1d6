// Package allocfreetest exercises the allocfree analyzer. The fixture's
// root set is {allocfreetest.(*Engine).Step}: everything it transitively
// calls — including through an interface dispatch — must be free of
// allocating constructs, while unreachable code may allocate freely.
package allocfreetest

type handler interface{ handle(x int) }

// fast is the allocation-free implementation: no findings.
type fast struct{ n int }

func (f *fast) handle(x int) { f.n += x }

// slow allocates; it is reachable only through the handler interface at
// the Step call site, so a finding here proves interface resolution.
type slow struct{ sink []int }

func (s *slow) handle(x int) {
	tmp := append(s.sink, x) // want `append into a new backing array`
	_ = tmp
	s.sink = append(s.sink, x) // self-append: amortized, no finding
}

type Engine struct {
	h   handler
	buf []int
	n   int
	t   thread
}

// Step is the fixture root.
func (e *Engine) Step() {
	e.t.loop(5)
	e.process(1)
	e.h.handle(2)
	e.spawnHelpers()
	e.boxes(3)
	e.literals()
	e.trap(4)
}

// process is clean: self-append and value composite only.
func (e *Engine) process(x int) {
	e.buf = append(e.buf, x)
	type point struct{ x, y int }
	_ = point{x, x} // value composite literal stays on the stack
}

func (e *Engine) spawnHelpers() {
	go e.process(1)        // want `go statement spawns a goroutine`
	fn := func() { e.n++ } // want `closure captures e`
	fn()
	hoisted := func() {} // capture-free literal: hoisted, no finding
	hoisted()
}

func sink(v any)         {}
func sinkPtr(p *int)     {}
func variadic(vs ...int) {}

func (e *Engine) boxes(x int) {
	sink(x)          // want `boxed into interface parameter`
	sinkPtr(&e.n)    // pointer-shaped: no boxing, no finding
	variadic(x, x)   // want `variadic call materializes an argument slice`
	buf := []int{}   // want `slice literal`
	variadic(buf...) // pass-through: no slice materialized, no finding
}

func (e *Engine) literals() {
	m := make(map[int]int) // want `make`
	_ = m
	_ = map[int]int{1: 2} // want `map literal`
	p := new(int)         // want `new`
	_ = p
	type point struct{ x, y int }
	q := &point{1, 2} // want `&composite literal escapes`
	_ = q
}

// trap panics: constructs feeding the panic argument are exempt, the
// statement before it is not.
func (e *Engine) trap(x int) {
	if x < 0 {
		bad := make([]int, x) // want `make`
		_ = bad
	}
	if x > 10 {
		panic(append(e.buf, x)) // allocation feeding panic is exempt: no finding
	}
}

// thread models the engine's thread: WorkLoop parks its function in a
// field and Step calls it between events, so the function is on the proved
// path although the thread code that hands it over is not.
type thread struct{ loop func(now int64) bool }

func (t *thread) WorkLoop(f func(now int64) bool) { t.loop = f }

type request struct{ client, arriveNS int64 }

// generate is thread code, unreachable from Step: only the body of the
// function it hands to WorkLoop is checked, and there the request is boxed.
func generate(t *thread, client int64) {
	t.WorkLoop(func(now int64) bool {
		r := request{client: client, arriveNS: now}
		sink(r) // want `boxed into interface parameter`
		return true
	})
}

// cold is unreachable from Step: its allocations produce no findings.
func (e *Engine) cold() {
	_ = make([]int, 8)
	_ = append([]int{}, 1)
	go e.process(1)
	sink(1)
}
