package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// TestFiguresMatchGolden renders every figure of the table except the
// scale-independent model check at TestTiny and holds the text, then the
// CSV, to testdata/tiny.golden byte for byte. The golden was recorded
// through the per-figure driver functions this table replaced, so it pins
// that the scenario → sweep → report pipeline prints what they printed.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out, csv bytes.Buffer
	run := sweep.Runner{Parallel: 2}.Run
	sel := func(k string) bool { return k != "tla" }
	if err := render(&out, &csv, artifacts(false), sel, harness.Scale{TestTiny: true}, run); err != nil {
		t.Fatal(err)
	}
	out.WriteString("--- CSV ---\n")
	out.Write(csv.Bytes())
	want, err := os.ReadFile(filepath.Join("testdata", "tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(got), len(wantLines)) {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("line %d differs from testdata/tiny.golden:\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/tiny.golden %d", len(got), len(wantLines))
	}
}

// TestHeadlinesShareFigure5Runs: selecting only the headlines still runs
// the Figure 5 panels under Figure 5's progress line, and nothing else.
func TestHeadlinesShareFigure5Runs(t *testing.T) {
	var out bytes.Buffer
	var runs, configs int
	run := func(cfgs []harness.Config) ([]harness.Result, error) {
		runs++
		configs += len(cfgs)
		return make([]harness.Result, len(cfgs)), nil
	}
	sel := func(k string) bool { return k == "headlines" }
	if err := render(&out, nil, artifacts(true), sel, harness.Scale{TestTiny: true}, run); err != nil {
		t.Fatal(err)
	}
	// 4 shapes x 2 cluster sizes x 3 algorithms x 1 thread count.
	if runs != 1 || configs != 24 {
		t.Errorf("headlines ran %d sweeps of %d configs, want 1 of 24", runs, configs)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte("\nrunning Figure 5 (throughput grid)")) ||
		!bytes.Contains(out.Bytes(), []byte("Headline ratios")) {
		t.Errorf("output:\n%s", out.String())
	}
}
