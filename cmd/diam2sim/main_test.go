package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"diam2/internal/harness"
	"diam2/internal/store"
)

// simulateArgs drives run in-process and returns its stdout; any exit
// status but 0 fails the test.
func simulateArgs(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("diam2sim %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestSaturateLadderFromCurve: -saturate prints one line per rung of
// the ladder curve, rendered from that rung's run, then the saturation
// load. The expected curve is the library's for the same command line,
// replayed from the store the run recorded into.
func TestSaturateLadderFromCurve(t *testing.T) {
	dir := t.TempDir()
	out := simulateArgs(t, "-topo", "oft-small", "-alg", "min", "-pattern", "wc", "-saturate", "-j", "2", "-store", dir)

	p, err := harness.PresetByShort("oft-small")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc := harness.QuickScale()
	sc.Sched = harness.Sched{Workers: 2, Store: st}
	sat, ladder, err := harness.SaturationPoint(tp, harness.AlgMIN, p.BestAdaptive, harness.PatWC, harness.DefaultLoads(), 0.05, sc)
	if err != nil {
		t.Fatal(err)
	}
	// diam2sim's fault-free plan keys like the library's zero plan, so
	// the library replays every rung the run recorded.
	if got := st.Stats(); got.Hits != int64(len(ladder.Runs)) || got.Puts != 0 {
		t.Errorf("library replay of the -saturate store: %d reused, %d computed; want %d, 0", got.Hits, got.Puts, len(ladder.Runs))
	}
	var want strings.Builder
	for i, res := range ladder.Runs {
		fmt.Fprintf(&want, "load %.2f: throughput %.3f, avg latency %.0f cycles\n", ladder.X[i], res.Throughput, res.AvgLatency)
	}
	fmt.Fprintf(&want, "saturation load (wc, min): %.3f of injection bandwidth\n", sat)
	if !strings.Contains(out, want.String()) {
		t.Errorf("-saturate output:\n%s\nwant the ladder:\n%s", out, want.String())
	}
	// OFT(k=6) under worst-case MIN saturates at 1/k (Section 4.2).
	if sat != 0.10 {
		t.Errorf("saturation load %.3f, want 0.10, the last rung below 1/6", sat)
	}
}

// TestSingleRunSummary: a plain run prints its setup line and the
// delivered throughput and packet counts of the run the library
// computes for the same command line.
func TestSingleRunSummary(t *testing.T) {
	out := simulateArgs(t, "-topo", "oft-small", "-alg", "inr", "-load", "0.3")
	p, err := harness.PresetByShort("oft-small")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := harness.QuickScale()
	res, err := harness.RunSynthetic(tp, harness.AlgINR, p.BestAdaptive, harness.PatUNI, 0.3, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"synthetic uni with inr at load 0.30 for 16000 cycles (warmup 3000)\n",
		fmt.Sprintf("delivered throughput %.1f%% of injection bandwidth\n", res.Throughput*100),
		fmt.Sprintf("packets   generated=%d injected=%d delivered=%d\n", res.Generated, res.Injected, res.Delivered),
		"100.0% indirect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestOutOfRangeExit2: a value the run would clamp, ignore or replace
// by a default exits 2 with one line on stderr and nothing on stdout.
func TestOutOfRangeExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "1.5"}, {"-load", "0"}, {"-load", "NaN"},
		{"-fail-links", "-1"}, {"-mtbf", "-5"}, {"-mttr", "-5"},
		{"-ni", "-3"}, {"-c", "-2"}, {"-retx-timeout", "-1"},
		{"-j", "-1"}, {"-cores", "-2"},
		{"-fail-links", "0.1", "-mtbf", "1000"}, {"-fail-at", "5000"},
		{"-mttr", "50"}, {"-mttr", "50", "-fail-links", "2"},
		{"-retx-timeout", "100"}, {"-rebuild-latency", "-1"},
		{"-fail-links", "2.5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), args[0]) || stdout.Len() != 0 {
			t.Errorf("%s: want one stderr line naming the flag, got stderr %q, stdout %q", strings.Join(args, " "), stderr.String(), stdout.String())
		}
	}
}

// TestParseOutcomesInProcess: -version, -h and a malformed flag end the
// run with their exit status and leave the test binary running.
func TestParseOutcomesInProcess(t *testing.T) {
	for _, c := range []struct {
		args       []string
		code       int
		out, errIs string
	}{
		{[]string{"-version"}, 0, "diam2sim ", ""},
		{[]string{"-h"}, 0, "", "Usage of diam2sim:\n"},
		{[]string{"-nosuchflag"}, 2, "", "flag provided but not defined: -nosuchflag\nUsage of diam2sim:\n"},
		{[]string{"-load", "x"}, 2, "", "invalid value \"x\" for flag -load: parse error\nUsage of diam2sim:\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.HasPrefix(stdout.String(), c.out) || !strings.HasPrefix(stderr.String(), c.errIs) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d, stdout starting %q, stderr starting %q",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.code, c.out, c.errIs)
		}
	}
}
