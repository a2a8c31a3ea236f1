package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"diam2/internal/plot"
	"diam2/internal/sim"
	"diam2/internal/topo"
)

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== t ==", "a", "bb", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Generator(t *testing.T) {
	tab, err := Table2ML3B(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(tab.Rows))
	}
	if tab.Rows[0][1] != "9 10 11 12" {
		t.Errorf("row 0 = %q, want \"9 10 11 12\"", tab.Rows[0][1])
	}
	if tab.Rows[12][1] != "12 2 4 6" {
		t.Errorf("row 12 = %q", tab.Rows[12][1])
	}
	if _, err := Table2ML3B(5); err == nil {
		t.Error("k=5 accepted (k-1 not prime)")
	}
}

func TestFig3Generator(t *testing.T) {
	tab := Fig3Scalability([]int{12, 24})
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	families := map[string]bool{}
	for _, r := range tab.Rows {
		families[r[1]] = true
	}
	for _, want := range []string{"HyperX", "SlimFly(floor)", "SlimFly(ceil)", "FatTree2", "FatTree3", "MLFM", "OFT"} {
		if !families[want] {
			t.Errorf("family %s missing from Fig. 3 table", want)
		}
	}
}

func TestFig4Generator(t *testing.T) {
	tab, err := Fig4Bisection(SmallPresets(), 6, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
}

func TestDiversityReportGenerator(t *testing.T) {
	p := SmallPresets()[1] // MLFM(6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := DiversityReport(tp)
	if len(tab.Rows) != 1 {
		t.Fatal("diversity report should have one row")
	}
}

func TestPresetsBuild(t *testing.T) {
	for _, p := range append(SmallPresets(), PaperPresets()...) {
		tp, err := p.Build()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if tp.Nodes() == 0 {
			t.Errorf("%s: no nodes", p.Name)
		}
		// Family reads SFStyle, the router's cost model reads SFCost.
		if p.SFStyle != p.BestAdaptive.SFCost {
			t.Errorf("%s: SFStyle %v but BestAdaptive.SFCost %v", p.Name, p.SFStyle, p.BestAdaptive.SFCost)
		}
	}
}

func TestRunSyntheticQuick(t *testing.T) {
	p := SmallPresets()[1] // MLFM(6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	scale := QuickScale()
	res, err := RunSynthetic(tp, AlgMIN, p.BestAdaptive, PatUNI, 0.5, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 0.4 || res.Throughput > 0.6 {
		t.Errorf("uniform MIN throughput %.3f at load 0.5", res.Throughput)
	}
	wc, err := RunSynthetic(tp, AlgMIN, p.BestAdaptive, PatWC, 1.0, scale)
	if err != nil {
		t.Fatal(err)
	}
	// WC saturation ~ 1/h = 1/6 for MLFM(6).
	if wc.Throughput > 0.30 {
		t.Errorf("WC MIN throughput %.3f, want near 1/6", wc.Throughput)
	}
}

func TestSaturationPoint(t *testing.T) {
	p := SmallPresets()[2] // OFT(6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	scale := QuickScale()
	sat, curve, err := SaturationPoint(tp, AlgMIN, p.BestAdaptive, PatWC, []float64{0.05, 0.2, 0.6}, 0.08, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Runs) != 3 {
		t.Fatalf("curve has %d runs", len(curve.Runs))
	}
	// OFT(6) WC minimal saturates near 1/k = 1/6; 0.05 should pass,
	// 0.6 must not.
	if sat < 0.04 || sat > 0.25 {
		t.Errorf("saturation point %.2f, want ~1/6", sat)
	}
}

func TestRunExchangeQuick(t *testing.T) {
	p := SmallPresets()[2] // OFT(6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	scale := QuickScale()
	ex, err := BuildExchange(tp, ExA2A, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, eff, err := RunExchange(tp, AlgMIN, p.BestAdaptive, ex, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != ex.TotalPackets() {
		t.Errorf("delivered %d of %d", res.Delivered, ex.TotalPackets())
	}
	if eff <= 0 || eff > 1.05 {
		t.Errorf("effective throughput %.3f out of range", eff)
	}
}

// TestExchangeEffIsThroughput: an exchange's effective throughput —
// its packets' flits over cycles × nodes (Section 4.4) — is the run's
// Throughput bit for bit, because a closed loop is measured from cycle
// zero and delivers every packet once. It holds on every small preset,
// for both exchanges and all three routings, on one and two shards,
// and on a faulted exchange whose drops are retransmitted.
func TestExchangeEffIsThroughput(t *testing.T) {
	check := func(name string, tp topo.Topology, alg AlgKind, ugal UGALConfig, kind ExchangeKind, sc Scale) {
		t.Helper()
		ex, err := BuildExchange(tp, kind, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, eff, err := RunExchange(tp, alg, ugal, ex, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flits := float64(ex.TotalPackets()) * float64(sc.SimConfig(1).PacketFlits())
		want := flits / (float64(res.Cycles) * float64(tp.Nodes()))
		if eff != res.Throughput || want != res.Throughput {
			t.Errorf("%s: eff %v, flits/(cycles×nodes) %v, Throughput %v; want all three equal", name, eff, want, res.Throughput)
		}
	}
	for _, p := range SmallPresets() {
		tp, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []ExchangeKind{ExA2A, ExNN} {
			for _, alg := range []AlgKind{AlgMIN, AlgINR, AlgA} {
				for _, cores := range []int{1, 2} {
					sc := coresScale(cores)
					sc.NNPackets = 2
					check(fmt.Sprintf("%s %s %s cores=%d", p.Name, kind, alg, cores), tp, alg, p.BestAdaptive, kind, sc)
				}
			}
		}
	}
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Faults = FaultPlan{FailFrac: 0.05, FailAt: 100}
	check(p.Name+" A2A MIN 5% links failed", tp, AlgMIN, p.BestAdaptive, ExA2A, sc)
}

// TestExchangeMeasuredFromCycleZero: a closed-loop exchange is measured
// whole (Section 4.4). A quick-scale all-to-all drains inside the
// open-loop warm-up window, so inheriting it reported zero latency,
// hops and indirect fraction — the numbers an adaptive exchange is run
// for.
func TestExchangeMeasuredFromCycleZero(t *testing.T) {
	p := SmallPresets()[0] // SF(q=5)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	scale := QuickScale()
	ex, err := BuildExchange(tp, ExA2A, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunExchange(tp, AlgA, p.BestAdaptive, ex, scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= scale.Warmup {
		t.Fatalf("exchange took %d cycles; the test needs one that ends inside the %d-cycle warm-up", res.Cycles, scale.Warmup)
	}
	if res.Warmup != 0 || res.AvgHops <= 0 || res.AvgLatency <= 0 || res.IndirectFrac <= 0 || res.IndirectFrac > 1 {
		t.Errorf("warmup=%d avg hops=%.2f avg latency=%.1f indirect=%.3f, want all packets of the exchange measured",
			res.Warmup, res.AvgHops, res.AvgLatency, res.IndirectFrac)
	}
}

func TestAdaptiveSweepSmall(t *testing.T) {
	p := SmallPresets()[1] // MLFM(6)
	scale := QuickScale()
	scale.Cycles = 8000
	scale.Warmup = 1500
	tab, err := AdaptiveSweep(p, AlgA, []int{1, 4}, nil, 4, 2, []float64{0.3, 0.9}, scale)
	if err != nil {
		t.Fatal(err)
	}
	// 2 nI values x 2 patterns x 2 loads = 8 rows.
	runs := rowsFromRuns(t, tab, 4)
	if len(runs) != 8 {
		t.Fatalf("runs = %d, want 8", len(runs))
	}
	for _, c := range tab.Curves {
		if c.Alg != AlgA || c.UGAL.C != 2 || (c.UGAL.NI != 1 && c.UGAL.NI != 4) {
			t.Errorf("curve %s runs %s nI=%d c=%g, want A, nI 1 or 4, c=2", c.Pattern, c.Alg, c.UGAL.NI, c.UGAL.C)
		}
	}
}

// rowsFromRuns checks that a swept figure's table was rendered from
// its curves: one row per run, in curve order, whose column col reads
// f3 of the run's Throughput. It returns the runs in row order.
func rowsFromRuns(t *testing.T, tab *Table, col int) []sim.Results {
	t.Helper()
	var runs []sim.Results
	for _, c := range tab.Curves {
		if len(c.Runs) != len(c.X) {
			t.Fatalf("curve %s %s %s: %d runs at %d x values", c.Topo, c.Alg, c.Pattern, len(c.Runs), len(c.X))
		}
		runs = append(runs, c.Runs...)
	}
	if len(runs) != len(tab.Rows) {
		t.Fatalf("%d rows from %d runs", len(tab.Rows), len(runs))
	}
	for i, r := range runs {
		if got, want := tab.Rows[i][col], f3(r.Throughput); got != want {
			t.Errorf("row %d throughput cell %q, want %q from its run", i, got, want)
		}
	}
	return runs
}

func TestBuildAlgKinds(t *testing.T) {
	p := SmallPresets()[0] // SF
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	scale := QuickScale()
	for _, kind := range []AlgKind{AlgMIN, AlgINR, AlgA, AlgATh} {
		alg, cfg, err := buildAlg(tp, kind, p.BestAdaptive, scale)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if cfg.NumVCs < alg.NumVCs() {
			t.Errorf("%s: config VCs %d < required %d", kind, cfg.NumVCs, alg.NumVCs())
		}
	}
	if AlgMIN.String() != "MIN" || AlgATh.String() != "ATh" {
		t.Error("AlgKind.String labels wrong")
	}
}

func TestFig6ObliviousGenerator(t *testing.T) {
	scale := QuickScale()
	scale.Cycles = 6000
	scale.Warmup = 1200
	presets := SmallPresets()[1:2] // MLFM only, keep it fast
	tab, err := Fig6Oblivious(presets, PatUNI, []float64{0.3, 0.8}, scale)
	if err != nil {
		t.Fatal(err)
	}
	// 1 preset x 2 algorithms x 2 loads.
	if runs := rowsFromRuns(t, tab, 3); len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	wc, err := Fig6Oblivious(presets, PatWC, []float64{1.0}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if runs := rowsFromRuns(t, wc, 3); len(runs) != 2 {
		t.Fatalf("WC runs = %d, want 2", len(runs))
	}
	// Fig. 6b: worst-case traffic saturates MIN near 1/h, and INR's
	// detour through a random router rescues it.
	minWC, inrWC := wc.Curves[0], wc.Curves[1]
	if minWC.Alg != AlgMIN || inrWC.Alg != AlgINR {
		t.Fatalf("curves run %s and %s, want MIN then INR", minWC.Alg, inrWC.Alg)
	}
	if m, i := minWC.Runs[0].Throughput, inrWC.Runs[0].Throughput; m >= i {
		t.Errorf("%s WC at load 1.0: MIN delivers %.3f, INR %.3f; want MIN below INR", minWC.Topo, m, i)
	}
}

func TestFigExchangeGenerator(t *testing.T) {
	scale := QuickScale()
	scale.A2APackets = 1
	presets := SmallPresets()[1:2] // MLFM only
	tab, err := FigExchange(presets, ExA2A, scale)
	if err != nil {
		t.Fatal(err)
	}
	// 1 preset x 3 routings, one run each: the effective throughput
	// column is f3 of the run's Throughput.
	runs := rowsFromRuns(t, tab, 2)
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	for _, r := range runs {
		if r.Delivered != r.Generated || r.Delivered == 0 {
			t.Errorf("exchange delivered %d of %d packets", r.Delivered, r.Generated)
		}
	}
	if tab.Rows[2][1] != "MLFM-A" {
		t.Errorf("adaptive label = %q, want MLFM-A", tab.Rows[2][1])
	}
	scale.NNPackets = 2
	nn, err := FigExchange(presets, ExNN, scale)
	if err != nil {
		t.Fatal(err)
	}
	if runs := rowsFromRuns(t, nn, 2); len(runs) != 3 {
		t.Fatalf("NN runs = %d, want 3", len(runs))
	}
}

func TestScaleConfigs(t *testing.T) {
	for _, sc := range []Scale{QuickScale(), MediumScale(), PaperScale()} {
		if sc.Cycles <= sc.Warmup {
			t.Errorf("%s: cycles %d <= warmup %d", sc.Label, sc.Cycles, sc.Warmup)
		}
		cfg := sc.SimConfig(2)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Label, err)
		}
	}
	// Paper scale must use the paper's switch parameters.
	p := PaperScale().SimConfig(1)
	if p.InputBufFlits != 100*1024/64 {
		t.Errorf("paper input buffer = %d flits, want 1600", p.InputBufFlits)
	}
	if p.SwitchLatency != 20 || p.LinkLatency != 10 {
		t.Errorf("paper latencies = %d/%d, want 20/10", p.SwitchLatency, p.LinkLatency)
	}
	// The CLI vocabulary names each scale by its label.
	for _, name := range []string{"quick", "medium", "paper"} {
		sc, presets, err := ScaleByName(name)
		if err != nil || sc.Label != name || len(presets) == 0 {
			t.Errorf("ScaleByName(%q) = %q, %d presets, %v", name, sc.Label, len(presets), err)
		}
	}
	if _, _, err := ScaleByName("huge"); err == nil {
		t.Error("ScaleByName accepted an unknown scale")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("1", "x,y")
	tab.AddRow("2", `say "hi"`)
	var b strings.Builder
	if err := tab.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

// TestTableFileWriters: the markdown form, and the CSV and SVG files
// the CLIs' -csvdir/-plotdir ask for — none when the directory flag is
// unset, the directory created when it is.
func TestTableFileWriters(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	ch := &plot.Chart{Title: "t", XLabel: "x", YLabel: "y"}
	ch.Add(plot.Series{Label: "s", X: []float64{0, 1}, Y: []float64{0, 1}})
	tab.Charts = []*plot.Chart{ch, ch}

	if got, want := tab.Markdown(), "### t\n\n| a | b |\n|---|---|\n| 1 | 2 |\n\n"; got != want {
		t.Errorf("markdown = %q, want %q", got, want)
	}

	if err := tab.WriteCSV("", "fig"); err != nil {
		t.Fatal(err)
	}
	if svgs, err := tab.WriteCharts("", "fig"); err != nil || svgs != nil {
		t.Fatalf("unset plot directory wrote %v, %v", svgs, err)
	}
	dir := filepath.Join(t.TempDir(), "new", "out")
	if err := tab.WriteCSV(dir, "fig"); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "fig.csv")); err != nil || string(data) != "a,b\n1,2\n" {
		t.Errorf("fig.csv = %q, %v", data, err)
	}
	svgs, err := tab.WriteCharts(dir, "fig")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(dir, "fig_0.svg"), filepath.Join(dir, "fig_1.svg")}; !reflect.DeepEqual(svgs, want) {
		t.Fatalf("chart paths %v, want %v", svgs, want)
	}
	for _, path := range svgs {
		if data, err := os.ReadFile(path); err != nil || !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s: %v, %.20q", path, err, data)
		}
	}
}

// TestPointKeyMatchesSprintf holds pointKey to the format it was first
// written with, which every stored key's point string went through,
// for ordinary loads, ones that round, and NaN, ±Inf and -0.
func TestPointKeyMatchesSprintf(t *testing.T) {
	oracle := func(family, topoName string, kind AlgKind, pat PatternKind, load float64) string {
		return fmt.Sprintf("%s|%s|%s|%s|load=%.4f", family, topoName, kind, pat, load)
	}
	loads := []float64{0, 0.5, 0.123449999, 0.12345, 0.99995, 1, 1e-9, 12345.6789, -0.25,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, load := range loads {
		for _, c := range []struct {
			family, topo string
			kind         AlgKind
			pat          PatternKind
		}{
			{"screen", "SF(q=5,p=3)", AlgMIN, PatUNI},
			{"fig6", "MLFM(h=6)", AlgINR, PatWC},
			{"", "", AlgKind(99), PatternKind(-1)},
		} {
			if got, want := pointKey(c.family, c.topo, c.kind, c.pat, load), oracle(c.family, c.topo, c.kind, c.pat, load); got != want {
				t.Errorf("pointKey = %q, Sprintf = %q", got, want)
			}
		}
	}
}
