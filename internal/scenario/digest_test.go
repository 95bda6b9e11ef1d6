package scenario

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// The golden file pins every scenario's schedule across commits: a refactor
// that claims "same simulated-op sequences" regenerates nothing and stays
// green; a PR that intends to change schedules reruns with -update and says
// so in CHANGES.md.
var update = flag.Bool("update", false, "rewrite internal/scenario/testdata/digests.golden")

// resultDigest hashes the integer fields of each Result — everything that is
// a pure function of the schedule. Floats and latency summaries are derived
// from these plus per-op timestamps the event count already pins.
func resultDigest(rs []harness.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintln(h, r.Ops, r.Events, r.SpanNS, r.ReadOps, r.WriteOps,
			r.Timeouts, r.Abandons, r.FencedReleases, r.LateAcquires, r.PairOps,
			r.TxnCommits, r.TxnAborts, r.TxnRetries, r.NIC, r.Lock)
		if r.Svc != nil {
			fmt.Fprintln(h, r.Svc.Offered, r.Svc.Served, r.Svc.Shed)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestScenarioDigests is the cross-commit schedule gate: every registered
// scenario at smoke scale must hash to the digest recorded in
// testdata/digests.golden.
func TestScenarioDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "digests.golden")
	want := map[string]string{}
	if !*update {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = sum
			}
		}
	}
	var out strings.Builder
	for _, sc := range All() {
		rs, err := sweep.Runner{Parallel: 4}.Run(sc.Configs(harness.Scale{TestTiny: true}))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got := resultDigest(rs)
		fmt.Fprintf(&out, "%s %s\n", sc.Name, got)
		if *update {
			continue
		}
		switch w, ok := want[sc.Name]; {
		case !ok:
			t.Errorf("%s: no golden digest (new scenario? rerun with -update)", sc.Name)
		case w != got:
			t.Errorf("%s: schedule changed: digest %s, golden %s", sc.Name, got, w)
		}
		delete(want, sc.Name)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		t.Errorf("%s: golden digest for a scenario that is no longer registered", name)
	}
}
