package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build" // inside the checkout, named in .gitignore
	// childTimeout is how a hang shows up: the child is killed, its configs
	// count as failed and the run stops.
	childTimeout = 120 * time.Second
	setupRepeats = 3 // setup_s is the median of this many warm-up passes
)

func now() time.Time {
	return time.Now() //lint:allow detrand benchmark driver: measuring host wall time is its job
}

// span is one interval of the run: run > build / warmup / pass > child:<name>.
// On the profiled pass a child span also carries the host self time of each
// layer inside it.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	SelfS   map[string]float64 `json:"self_s,omitempty"`
}

// tracer keeps spans in memory; they are written out with the result.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now().Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = now().Sub(t.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// result is the part of alockbench's -json output the benchmark reads. The
// field names are the surface it binds to.
type result struct {
	Config struct {
		Algorithm      string
		Nodes          int
		ThreadsPerNode int
	}
	Ops        int64
	Events     int64
	Throughput float64
	Latency    struct{ P99NS int64 }

	Timeouts       int64
	FencedReleases int64
	LateAcquires   int64
	TxnCommits     int64
	TxnAborts      int64
	TxnRetries     int64

	NIC  struct{ Verbs, QPCMisses, Slowdowns, MaxBacklogNS int64 }
	Lock struct{ Acquires, Passes, Reacquires, LocalOps, RemoteOps int64 }
	Svc  *struct {
		TotalOffered, TotalServed, TotalShed int64
		GoodputOPS                           float64
		MaxQueueLen                          int64
		QueueWait, AcquireWait, HoldTime     struct{ P99NS int64 }
	}
}

// checkResult is the per-config output check behind `failed`. A config that
// completes no op is still good if it gave up on some: a 10 us deadline on a
// hot MCS queue times out every acquisition at some seeds, and that is a
// result of the model, not a failure of the simulator.
func checkResult(r result) error {
	switch {
	case r.Ops == 0 && r.Timeouts == 0:
		return errors.New("Ops == 0 and Timeouts == 0")
	case r.Events == 0:
		return errors.New("Events == 0")
	case r.Svc != nil && r.Svc.TotalOffered != r.Svc.TotalServed+r.Svc.TotalShed:
		return fmt.Errorf("service conservation: offered %d != served %d + shed %d",
			r.Svc.TotalOffered, r.Svc.TotalServed, r.Svc.TotalShed)
	}
	return nil
}

// parseResults accepts both shapes of -json output: an array from -scenario,
// one object from a single config.
func parseResults(out []byte) ([]result, error) {
	out = bytes.TrimSpace(out)
	if len(out) > 0 && out[0] == '{' {
		var r result
		err := json.Unmarshal(out, &r)
		return []result{r}, err
	}
	var rs []result
	err := json.Unmarshal(out, &rs)
	if err == nil && len(rs) == 0 {
		err = errors.New("no results")
	}
	return rs, err
}

// digest hashes -json output with Config.EngineShards removed and keys
// sorted, so the same simulation on another executor hashes the same.
func digest(out []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.UseNumber() // keep every digit as printed
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	rs, ok := v.([]any)
	if !ok {
		rs = []any{v}
	}
	for _, r := range rs {
		if m, ok := r.(map[string]any); ok {
			if cfg, ok := m["Config"].(map[string]any); ok {
				delete(cfg, "EngineShards")
			}
		}
	}
	canon, err := json.Marshal(rs) // map keys come out sorted
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

type childRun struct {
	name      string
	wall, cpu time.Duration
	rssKiB    int64
	results   []result
	digest    string
	attempted int
	failed    int
	self      map[string]float64 // profiled pass only
}

type passRun struct {
	children  []childRun
	wall, cpu time.Duration
	rssKiB    int64 // max over children
}

func (p passRun) results() []result {
	var rs []result
	for _, c := range p.children {
		rs = append(rs, c.results...)
	}
	return rs
}

func (p passRun) sums() (events, ops int64) {
	for _, r := range p.results() {
		events += r.Events
		ops += r.Ops
	}
	return events, ops
}

type runner struct {
	bin     string
	seed    int64
	tr      *tracer
	profDir string

	ref        map[string]string // first digest seen per pass kind and child
	attempted  int
	failed     int
	mismatches int
	errs       []string
	aborted    bool // a child timed out: stop starting children
}

func (r *runner) fail(c *childRun, n int, format string, a ...any) {
	c.failed += n
	r.errs = append(r.errs, c.name+": "+fmt.Sprintf(format, a...))
}

// runChild runs one alockbench invocation, applies the output checks and
// compares its digest with the first one seen for the same kind and name.
func (r *runner) runChild(kind string, parent int, c child, profile bool) childRun {
	cr := childRun{name: c.name, attempted: 1}
	args := append(append([]string{}, c.args...), "-seed", strconv.FormatInt(r.seed, 10), "-json")
	var prof string
	if profile {
		prof = filepath.Join(r.profDir, strings.ReplaceAll(c.name, "/", "_")+".pprof")
		args = append(args, "-cpuprofile", prof)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	id := r.tr.begin("child:"+c.name, parent)
	err := cmd.Run()
	cr.wall = r.tr.end(id)
	if ps := cmd.ProcessState; ps != nil {
		cr.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			cr.rssKiB = ru.Maxrss // KiB on Linux
		}
	}

	if ctx.Err() == context.DeadlineExceeded {
		r.aborted = true
		r.fail(&cr, 1, "killed after %s", childTimeout)
		return cr
	}
	if err != nil {
		r.fail(&cr, 1, "%v: %s", err, firstLine(stderr.String()))
		return cr
	}
	if cr.results, err = parseResults(stdout.Bytes()); err != nil {
		r.fail(&cr, 1, "output does not parse: %v", err)
		return cr
	}
	cr.attempted = len(cr.results)
	for i, res := range cr.results {
		if err := checkResult(res); err != nil {
			r.fail(&cr, 1, "config %d (%s): %v", i, res.Config.Algorithm, err)
		}
	}
	if cr.digest, err = digest(stdout.Bytes()); err != nil {
		r.fail(&cr, cr.attempted-cr.failed, "digest: %v", err)
		return cr
	}
	key := kind + " " + c.name
	if want, seen := r.ref[key]; !seen {
		r.ref[key] = cr.digest
	} else if cr.digest != want {
		r.mismatches++
		r.fail(&cr, cr.attempted-cr.failed, "digest %.12s differs from the first pass's %.12s", cr.digest, want)
	}
	if profile {
		if cr.self, err = profileSelf(prof); err != nil {
			r.errs = append(r.errs, c.name+": "+err.Error())
		}
		r.tr.spans[id-1].SelfS = cr.self
	}
	return cr
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// pass runs the children one after another. kind names the digest family:
// every "warmup" pass must agree with the first warm-up, every "pass" —
// timed, profiled or on another executor — with the first timed pass.
func (r *runner) pass(spanName, kind string, parent int, cs []child, profile bool) passRun {
	id := r.tr.begin(spanName, parent)
	defer r.tr.end(id)
	var p passRun
	for _, c := range cs {
		if r.aborted {
			break
		}
		cr := r.runChild(kind, id, c, profile)
		r.attempted += cr.attempted
		r.failed += cr.failed
		p.children = append(p.children, cr)
		p.wall += cr.wall
		p.cpu += cr.cpu
		p.rssKiB = max(p.rssKiB, cr.rssKiB)
	}
	return p
}

// metric is one reported value. Gated values are medians over the run's
// passes; min, max and n say how far to trust them.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	BuildS    float64           `json:"build_s"` // information only: mostly the Go build cache
	Passes    int               `json:"passes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   map[string]string `json:"digests"` // per child of the timed pass
	Spans     []span            `json:"spans"`
}

// build compiles the CLI the benchmark drives. Untimed: it measures the Go
// build cache, not the repo.
func build() (string, error) {
	if _, err := os.Stat("cmd/alockbench"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "alockbench"))
	if err != nil {
		return "", err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/alockbench").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/alockbench: %v\n%s", err, out)
	}
	return bin, nil
}

// runWorkload is one run: build, warm up, timed passes for about `seconds`,
// and with trace a profiled pass plus the executor variants.
func runWorkload(s *spec, w workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	tr := &tracer{t0: now()}
	root := tr.begin("run", 0)

	id := tr.begin("build", root)
	bin, err := build()
	buildTime := tr.end(id)
	if err != nil {
		return nil, err
	}
	profDir, err := os.MkdirTemp(buildDir, "prof-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(profDir)
	r := &runner{bin: bin, seed: seed, tr: tr, profDir: profDir, ref: map[string]string{}}

	// The traced run reports no setup_s, so one warm-up is enough there.
	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var warm []passRun
	for i := 0; i < repeats; i++ {
		warm = append(warm, r.pass("warmup", "warmup", root, w.warmup, false))
	}

	// At least one pass; another only while it still fits in `seconds`.
	var timed []passRun
	start := now()
	for {
		timed = append(timed, r.pass("pass", "pass", root, w.pass, false))
		elapsed := now().Sub(start)
		if r.aborted || (elapsed+elapsed/time.Duration(len(timed))).Seconds() > seconds {
			break
		}
	}

	values := endToEnd(timed, warm)
	if trace {
		in := layerInput{timed: timed, variantWall: map[string]time.Duration{}}
		in.startupS = r.startup(root)
		in.profiled = r.pass("pass:profiled", "pass", root, w.pass, true)
		for _, v := range w.variants {
			in.variantWall[v.name] = r.pass("pass:"+v.name, "pass", root, v.pass, false).wall
		}
		in.failed, in.mismatches = r.failed, r.mismatches
		for name, v := range perLayer(in) {
			values[name] = metric{Value: v, Min: v, Max: v, N: 1}
		}
	}
	tr.end(root)

	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		BuildS: buildTime.Seconds(), Passes: len(timed),
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Errors: r.errs,
		Metrics: map[string]metric{}, Digests: map[string]string{}, Spans: tr.spans,
	}
	for _, c := range timed[0].children {
		res.Digests[c.name] = c.digest
	}
	defs := s.EndToEnd
	if trace {
		defs = append(append([]metricDef{}, defs...), s.PerLayer...)
	}
	for _, d := range defs {
		m, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names metric %q, which the benchmark does not compute", d.Name)
		}
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
	return res, nil
}

// startup times `alockbench -list-scenarios`: process start plus scenario
// registration, with no simulation. Median of five, since one takes a few
// milliseconds.
func (r *runner) startup(parent int) float64 {
	id := r.tr.begin("startup", parent)
	defer r.tr.end(id)
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := now()
		if err := exec.Command(r.bin, "-list-scenarios").Run(); err != nil {
			r.errs = append(r.errs, "-list-scenarios: "+err.Error())
		}
		ts = append(ts, now().Sub(t0).Seconds())
	}
	return median(ts)
}

func printRun(w io.Writer, s *spec, res *runResult) {
	fmt.Fprintf(w, "workload %s seed %d: %d timed pass(es), build_s %.2f, %d configs attempted, %d failed\n",
		res.Workload, res.Seed, res.Passes, res.BuildS, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	for _, d := range append(append([]metricDef{}, s.EndToEnd...), s.PerLayer...) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-38s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w)
	}
}
