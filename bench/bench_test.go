package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func testOpts(t *testing.T) opts {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return opts{seed: 7, seconds: 0.3, smoke: true, root: root, outDir: t.TempDir(), ctx: context.Background()}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the
// metric tables in this package saying the same thing.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(keys), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v over paths %v", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloads)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, bench emits %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, bench has %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q: name, unit %q or direction %q outside the contract", kind, g.Name, g.Unit, g.Better)
			}
			if seen[g.Name] {
				t.Errorf("%s %q declared twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %q: bound %v, bench has %v; must be in (0, 0.25]", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better; have %+v", endToEnd[0])
	}
}

// checkResult requires a run's result to hold exactly the declared
// metrics, with their units, and to have passed its own checks.
func checkResult(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
		case nonZero && !(m.Value > 0):
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, in
// this process: the same code the full-size benchmark runs.
func TestSmoke(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := testOpts(t)
			o.workload = name
			res, plain, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			// What a run prints must read back as what it measured.
			var out bytes.Buffer
			if code := printRun(&out, res, plain); code != 0 {
				t.Errorf("printRun exit code %d", code)
			}
			back, backDigests, err := parseRun(out.Bytes())
			if err != nil || !reflect.DeepEqual(back, res) || (len(plain) > 0 && !reflect.DeepEqual(backDigests, plain)) {
				t.Errorf("printed run does not parse back: %v", err)
			}

			o.trace = true
			res, traced, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			spans, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name == "" || first.End < first.Start {
				t.Errorf("trace does not start with a span: %v %+v", err, first)
			}
			if res.Metrics["bench.trace_overhead_frac"].Value == 0 && name != "paper_point_sharded" {
				t.Errorf("bench.trace_overhead_frac not measured")
			}

			// The points the traced run assembles by hand are the points
			// harness.RunSynthetic runs, bit for bit.
			if strings.HasPrefix(name, "paper_point") {
				if diff := plain.differ(traced); diff != "" || len(plain) != 2 {
					t.Errorf("hand-assembled points differ from the harness's: %s", diff)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(o.outDir, "serve-*")); len(left) > 0 {
				t.Errorf("temporary directories left behind: %v", left)
			}
		})
	}
}

// TestGoldenDigests checks the recorded seed-1 digests cover the three
// simulator workloads, and that at full size too the hand-assembled
// paper-scale points equal the harness's.
func TestGoldenDigests(t *testing.T) {
	o := opts{seed: 1}
	for _, name := range workloads[:3] {
		if len(o.golden(name)) == 0 || len(o.golden(name+".points")) == 0 {
			t.Errorf("testdata/digests.json has no digests for %s", name)
		}
	}
	for _, name := range []string{"paper_point", "paper_point_sharded"} {
		if !reflect.DeepEqual(o.golden(name), o.golden(name+".points")) {
			t.Errorf("%s: recorded hand-assembled digests differ from the harness's", name)
		}
	}
	if o.seed = 2; o.golden("figs_sweep") != nil {
		t.Errorf("golden digests apply to seed 1 only")
	}
	if diff := (digests{"a": "1", "b": "2"}).differ(digests{"a": "1", "b": "3"}); diff != "b" {
		t.Errorf("differ = %q, want b", diff)
	}
}

// fakeChild stands in for a child process: end-to-end values scaled by
// *scale, so a test can make the second set of runs worse.
func fakeChild(scale *float64, calls *int) func(opts) (result, digests, error) {
	return func(o opts) (result, digests, error) {
		*calls++
		if o.trace {
			res := newResult(perLayer, map[string]float64{"routing.calls": 12, "sim.run_s": 1.5})
			res.Correct, res.Attempted = true, 1
			return res, digests{"p": "x"}, nil
		}
		v := map[string]float64{}
		for _, m := range endToEnd {
			v[m.Name] = 10 * *scale
			if m.Better == "higher" {
				v[m.Name] = 10 / *scale
			}
		}
		res := newResult(endToEnd, v)
		res.Correct, res.Attempted = true, 1
		return res, digests{"out": "abc"}, nil
	}
}

func TestReportAndCheckRepeat(t *testing.T) {
	scale, calls := 1.0, 0
	var out bytes.Buffer
	s := suite{o: testOpts(t), reps: 3, child: fakeChild(&scale, &calls), out: &out}
	if _, err := s.report(); err != nil {
		t.Fatal(err)
	}
	if calls != len(workloads)*4 {
		t.Errorf("%d runs, want 3 untraced and 1 traced per workload", calls)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), m.Name+" ") {
			t.Errorf("report does not print %s", m.Name)
		}
	}
	if !strings.Contains(out.String(), "nproc") {
		t.Errorf("report has no machine line:\n%s", out.String())
	}

	out.Reset()
	if err := s.checkRepeat(); err != nil {
		t.Errorf("identical sets must agree: %v", err)
	}

	// The second set a third or more worse on everything: over every bound.
	out.Reset()
	worse := s
	n := 0
	worse.child = func(o opts) (result, digests, error) {
		if n++; n > len(workloads)*4 {
			scale = 1.5
		}
		return s.child(o)
	}
	err := worse.checkRepeat()
	if err == nil || !strings.Contains(err.Error(), "figs_sweep/work_per_s") || !strings.Contains(out.String(), "OVER") {
		t.Errorf("a much worse second set must fail the repeat check, got %v", err)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median(xs[:4]) != 3 || percentile(xs, 0) != 1 || percentile(xs, 100) != 5 || percentile(xs, 75) != 4 {
		t.Errorf("median/percentile wrong on %v", xs)
	}
	if got := fmt.Sprint(ladder(1, 0.2, 0.5, 0.8)); got != fmt.Sprint(ladder(1, 0.2, 0.5, 0.8)) {
		t.Errorf("ladder is not a function of the seed: %s", got)
	}
	for _, l := range ladder(3, 0.5) {
		if l < 0.49 || l > 0.51 {
			t.Errorf("ladder moved 0.5 to %v", l)
		}
	}
}
