package harness

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"diam2/internal/fluid"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

// quickScreenSpec keeps screening tests fast: one short ladder.
func quickScreenSpec() ScreenSpec {
	return ScreenSpec{Loads: []float64{0.1, 0.5, 1.0}}
}

// TestScreenSweepClosedForms: the screening tier recovers the Section
// 4.2 worst-case saturation bounds on the reduced instances, covers
// the full grid in grid order, and reports saturated uniform traffic
// near full bandwidth.
func TestScreenSweepClosedForms(t *testing.T) {
	sc := QuickScale()
	presets := SmallPresets()
	spec := quickScreenSpec()
	points, err := ScreenSweep(presets, spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(presets) * 2 * 2 * len(spec.Loads)
	if len(points) != wantLen {
		t.Fatalf("got %d points, want %d", len(points), wantLen)
	}
	// Closed forms: worst-case MIN saturation is 1/(2p) for SF (p=3),
	// 1/h for MLFM (h=6), 1/k for OFT (k=6) — 1/6 for all three here.
	sats := map[string]float64{}
	for _, p := range points {
		if p.Alg == AlgMIN && p.Pat == PatWC {
			sats[p.Topo] = p.Saturation
		}
		if p.Alg == AlgMIN && p.Pat == PatUNI && p.Saturation < 0.85 {
			t.Errorf("%s UNI MIN saturation %.3f, want near full bandwidth", p.Topo, p.Saturation)
		}
	}
	for name, sat := range sats {
		if math.Abs(sat-1.0/6) > 1e-9 {
			t.Errorf("%s WC MIN saturation %.6f, want exactly 1/6", name, sat)
		}
	}
	// Grid order: presets outermost, then algs, pats, loads.
	i := 0
	for _, p := range presets {
		for _, alg := range []AlgKind{AlgMIN, AlgINR} {
			for _, pat := range []PatternKind{PatUNI, PatWC} {
				for _, load := range spec.Loads {
					got := points[i]
					if got.Topo != p.Name || got.Alg != alg || got.Pat != pat || got.Load != load {
						t.Fatalf("point %d = %s|%s|%s|%.2f, want %s|%s|%s|%.2f",
							i, got.Topo, got.Alg, got.Pat, got.Load, p.Name, alg, pat, load)
					}
					if got.Family == "" {
						t.Fatalf("point %d has no family", i)
					}
					i++
				}
			}
		}
	}
}

// TestScreenSweepWorkerInvariance: screening results are identical for
// any scheduler worker count, like every other sweep.
func TestScreenSweepWorkerInvariance(t *testing.T) {
	presets := SmallPresets()
	spec := quickScreenSpec()
	serial := QuickScale()
	serial.Sched.Workers = 1
	a, err := ScreenSweep(presets, spec, serial)
	if err != nil {
		t.Fatal(err)
	}
	pooled := QuickScale()
	pooled.Sched.Workers = 4
	b, err := ScreenSweep(presets, spec, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("screening results differ between 1 and 4 workers")
	}
}

// TestScreenSweepRejectsAdaptive: adaptive algorithms have no fluid
// counterpart and must be rejected up front, not silently approximated.
func TestScreenSweepRejectsAdaptive(t *testing.T) {
	sc := QuickScale()
	_, err := ScreenSweep(SmallPresets(), ScreenSpec{Algs: []AlgKind{AlgA}}, sc)
	if !errors.Is(err, ErrUnsupportedRouting) {
		t.Fatalf("ScreenSweep with AlgA = %v, want ErrUnsupportedRouting", err)
	}
}

// TestScreenTierKeysDistinct: a screened result is stored under a
// fluid-tier key that no simulator lookup can hit — the same point
// configuration with the sim tier resolves to a different canonical
// key, and a re-screen hits the cache.
func TestScreenTierKeysDistinct(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc := QuickScale()
	sc.Sched.Store = st
	presets := SmallPresets()[:1]
	spec := quickScreenSpec()
	points, err := ScreenSweep(presets, spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if int(stats.Puts) != len(points) {
		t.Fatalf("stored %d records for %d screened points", stats.Puts, len(points))
	}
	// Every stored key must be the fluid-tier key; the sim-tier key of
	// the same point must miss.
	fluidScale, simScale := sc, sc
	fluidScale.Tier = store.TierFluid
	simScale.Tier = store.TierSim
	for _, p := range points {
		pointKey := "screen|" + p.Topo + "|" + p.Alg.String() + "|" + p.Pat.String() + "|load=" + strconv.FormatFloat(p.Load, 'f', 4, 64)
		fk := fluidScale.pointConfig(pointKey).Key()
		sk := simScale.pointConfig(pointKey).Key()
		if fk == sk {
			t.Fatalf("fluid and sim tiers share a key for %s", pointKey)
		}
		if _, ok := st.Get(fk); !ok {
			t.Fatalf("fluid-tier key missing from store for %s", pointKey)
		}
		if _, ok := st.Get(sk); ok {
			t.Fatalf("sim-tier key unexpectedly present for %s", pointKey)
		}
	}
	// Warm re-screen: byte-identical results, all cache hits. (The
	// Get calls above counted as store hits/misses themselves, so
	// re-baseline first.)
	stats = st.Stats()
	again, err := ScreenSweep(presets, spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Fatal("warm re-screen differs from cold screen")
	}
	after := st.Stats()
	if int(after.Hits-stats.Hits) != len(points) {
		t.Fatalf("warm re-screen hit %d of %d points", after.Hits-stats.Hits, len(points))
	}
	if after.Puts != stats.Puts {
		t.Fatalf("warm re-screen re-recorded results (%d -> %d puts)", stats.Puts, after.Puts)
	}
}

// screenPt builds a synthetic screened point for selection tests.
func screenPt(topoName, family, algName, patName string, load, sat, thr float64) ScreenPoint {
	alg, err := ParseAlg(algName)
	if err != nil {
		panic(err)
	}
	pat, err := ParsePattern(patName)
	if err != nil {
		panic(err)
	}
	return ScreenPoint{
		Topo: topoName, Family: family, Alg: alg, Pat: pat,
		Estimate: fluid.Estimate{Load: load, Saturation: sat, Throughput: thr, AvgLatency: 1},
	}
}

// TestSelectEscalationsBand: points within the relative band of their
// predicted saturation are picked; the rest are not.
func TestSelectEscalationsBand(t *testing.T) {
	points := []ScreenPoint{
		screenPt("A(1)", "A", "MIN", "WC", 0.10, 0.5, 0.10), // far below
		screenPt("A(1)", "A", "MIN", "WC", 0.46, 0.5, 0.46), // within 10%
		screenPt("A(1)", "A", "MIN", "WC", 0.54, 0.5, 0.50), // within 10%
		screenPt("A(1)", "A", "MIN", "WC", 0.90, 0.5, 0.50), // far above
	}
	picks := SelectEscalations(points, 0.10)
	if len(picks) != 2 {
		t.Fatalf("picked %d points, want 2", len(picks))
	}
	for _, pk := range picks {
		if len(pk.Reasons) != 1 || pk.Reasons[0] != ReasonBand {
			t.Errorf("pick at load %.2f has reasons %v, want [band]", pk.Point.Load, pk.Reasons)
		}
	}
	if picks[0].Point.Load != 0.46 || picks[1].Point.Load != 0.54 {
		t.Errorf("picked loads %.2f, %.2f; want 0.46, 0.54", picks[0].Point.Load, picks[1].Point.Load)
	}
	if got := SelectEscalations(points, 0); len(got) != 0 {
		t.Errorf("band 0 picked %d points, want none", len(got))
	}
}

// TestScreenThroughputNeverCrosses fences the escalation rule to its
// band: every screened throughput is min(load, saturation) with one
// saturation per (topology, routing, pattern), so two topologies'
// screened curves never swap rank and the fluid tier can never show a
// family crossover. If a later fluid model lets curves cross, this
// fails, and a crossover reason may come back with a real case.
func TestScreenThroughputNeverCrosses(t *testing.T) {
	presets := append(SmallPresets(), PaperPresets()...)
	spec := ScreenSpec{Loads: ScreenGridLoads(250)}
	points, err := ScreenSweep(presets, spec, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Grid order: each (topology, routing, pattern) ladder is one run
	// of len(spec.Loads) points, loads ascending.
	ladders := make(map[screenerComboKey][]ScreenPoint)
	for _, p := range points {
		k := screenerComboKey{p.Topo, p.Alg, p.Pat}
		ladder := ladders[k]
		if len(ladder) > 0 && p.Saturation != ladder[0].Saturation {
			t.Fatalf("%v: saturation %v at load %v, %v at load %v", k, p.Saturation, p.Load, ladder[0].Saturation, ladder[0].Load)
		}
		if p.Throughput != math.Min(p.Load, p.Saturation) {
			t.Fatalf("%v load %v: throughput %v, want min(load, saturation %v)", k, p.Load, p.Throughput, p.Saturation)
		}
		ladders[k] = append(ladder, p)
	}
	for ka, la := range ladders {
		for kb, lb := range ladders {
			if ka.alg != kb.alg || ka.pat != kb.pat || la[0].Family == lb[0].Family {
				continue
			}
			for i := 1; i < len(la); i++ {
				dPrev := la[i-1].Throughput - lb[i-1].Throughput
				dCur := la[i].Throughput - lb[i].Throughput
				if dPrev*dCur < 0 {
					t.Fatalf("%v and %v swap rank between loads %v and %v", ka, kb, la[i-1].Load, la[i].Load)
				}
			}
		}
	}
}

// TestEscalateSweep: escalated points run the real simulator and score
// against the recorded calibration tolerance of their scenario.
func TestEscalateSweep(t *testing.T) {
	sc := QuickScale()
	presets := SmallPresets()[:1] // SF(q=5,p=3)
	spec := ScreenSpec{
		Algs:  []AlgKind{AlgMIN},
		Pats:  []PatternKind{PatWC},
		Loads: []float64{0.15, 0.18},
	}
	points, err := ScreenSweep(presets, spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	picks := SelectEscalations(points, 0.15)
	if len(picks) == 0 {
		t.Fatal("no picks around the predicted saturation")
	}
	escs, err := EscalateSweep(picks, presets, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(escs) != len(picks) {
		t.Fatalf("escalated %d of %d picks", len(escs), len(picks))
	}
	for _, e := range escs {
		if !e.Recorded {
			t.Errorf("%s|%s|%s has no recorded tolerance; the SF WC MIN scenario must cover it",
				e.Pick.Point.Topo, e.Pick.Point.Alg, e.Pick.Point.Pat)
		}
		if e.Sim.Throughput <= 0 {
			t.Errorf("escalated simulation delivered nothing at load %.2f", e.Pick.Point.Load)
		}
		if math.IsNaN(e.RelErr) {
			t.Errorf("RelErr is NaN at load %.2f", e.Pick.Point.Load)
		}
		if !e.Within {
			t.Errorf("escalated point at load %.2f outside tolerance: relerr %.3f > tol %.3f",
				e.Pick.Point.Load, e.RelErr, e.Tolerance)
		}
	}
}

// TestEscalateSweepUnknownTopo: picks naming a topology outside the
// preset set fail loudly instead of simulating something else.
func TestEscalateSweepUnknownTopo(t *testing.T) {
	picks := []EscalationPick{{Point: screenPt("Nope(1)", "Nope", "MIN", "UNI", 0.5, 1, 0.5)}}
	if _, err := EscalateSweep(picks, SmallPresets(), QuickScale()); err == nil {
		t.Fatal("EscalateSweep accepted an unknown topology")
	}
}

// TestFluidSaturationTable: the shared helper (used by both diam2topo
// -fluid and diam2report) renders one row per preset and recovers the
// worst-case closed form in the WC MIN column.
func TestFluidSaturationTable(t *testing.T) {
	presets := SmallPresets()
	tab, err := FluidSaturationTable(presets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(presets) {
		t.Fatalf("%d rows for %d presets", len(tab.Rows), len(presets))
	}
	for i, row := range tab.Rows {
		if row[0] != presets[i].Name {
			t.Errorf("row %d topology %q, want %q", i, row[0], presets[i].Name)
		}
		if len(row) != 4 {
			t.Fatalf("row %d has %d cells, want 4", i, len(row))
		}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 || v > 1 {
				t.Errorf("row %d cell %q not a saturation fraction", i, cell)
			}
		}
		// All three reduced instances pin WC MIN at 1/6 = 0.167.
		if row[2] != "0.167" {
			t.Errorf("row %d WC MIN %q, want 0.167", i, row[2])
		}
	}
}

// TestPresetFamily pins the family naming the calibration scenarios
// key on.
func TestPresetFamily(t *testing.T) {
	fams := map[string]bool{}
	for _, p := range SmallPresets() {
		fams[p.Family()] = true
	}
	for _, want := range []string{"SF", "MLFM", "OFT"} {
		if !fams[want] {
			t.Errorf("SmallPresets missing family %s (got %v)", want, fams)
		}
	}
	for _, p := range PaperPresets() {
		if f := p.Family(); f != "SF" && f != "MLFM" && f != "OFT" {
			t.Errorf("paper preset %s has family %q", p.Name, f)
		}
	}
}

// TestScreenerPointAllocs: once a combination's link loads exist, a
// screening point is one pass over them and allocates nothing — the
// per-point cost of a 30 000-point screen.
func TestScreenerPointAllocs(t *testing.T) {
	scr, err := NewScreener(SmallPresets(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []PatternKind{PatUNI, PatWC} {
		if _, err := scr.Point("SF(q=5,p=3)", AlgINR, pat, 0.5); err != nil {
			t.Fatal(err)
		}
		load := 0.0
		if avg := testing.AllocsPerRun(200, func() {
			load += 0.01
			if _, err := scr.Point("SF(q=5,p=3)", AlgINR, pat, load); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("warm Point(%s) allocates %v times per call, want 0", pat, avg)
		}
	}
}

// TestScreenGridLoads: n evenly spaced loads ending exactly at 1.0,
// all strictly positive (a zero offered load is not a screening point).
func TestScreenGridLoads(t *testing.T) {
	got := ScreenGridLoads(4)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	if len(got) != len(want) {
		t.Fatalf("ScreenGridLoads(4) = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("load[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got[len(got)-1] != 1.0 {
		t.Errorf("ladder must end at full offered load, got %v", got[len(got)-1])
	}
}

// TestScreenCountersAdvance: the registry's screening counter grows by
// exactly the number of analytically answered points.
func TestScreenCountersAdvance(t *testing.T) {
	sc := QuickScale()
	sc.Telemetry.Registry = telemetry.NewRegistry()
	points, err := ScreenSweep(SmallPresets()[:1], quickScreenSpec(), sc)
	if err != nil {
		t.Fatal(err)
	}
	estimates := func() int64 { return sc.Telemetry.Registry.Snapshot().Counters["screen.estimates"] }
	before := estimates()
	if before != int64(len(points)) {
		t.Errorf("registry counted %d estimates for %d screened points", before, len(points))
	}
	if sc.Telemetry.Registry.Snapshot().Counters["screen.escalations"] != 0 {
		t.Error("screen-only sweep advanced the escalation counter")
	}

	// A served cold query submits one Screener.SchedPoint: it must
	// advance the registry by one.
	scr, err := NewScreener(SmallPresets()[:1], sc)
	if err != nil {
		t.Fatal(err)
	}
	pt := scr.SchedPoint(SmallPresets()[0].Name, AlgMIN, PatUNI, 0.5)
	if _, err := Collect(sc, []Point[ScreenPoint]{pt}); err != nil {
		t.Fatal(err)
	}
	if delta := estimates() - before; delta != 1 {
		t.Errorf("registry counted %d estimates for one served point", delta)
	}
}

// TestScreenAndEscalationTables: the renderers emit one row per combo
// (screen) and per escalation, with unrecorded tolerances shown as "-".
func TestScreenAndEscalationTables(t *testing.T) {
	points, err := ScreenSweep(SmallPresets(), quickScreenSpec(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	st := ScreenTable(points)
	// 3 presets x 2 algorithms x 2 patterns, each collapsing its ladder.
	if len(st.Rows) != 12 {
		t.Errorf("ScreenTable has %d rows, want 12 combos", len(st.Rows))
	}
	var b strings.Builder
	if err := st.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "saturation") {
		t.Errorf("rendered screen table lacks its header:\n%s", b.String())
	}

	escs := []Escalation{
		{
			Pick:      EscalationPick{Point: points[0], Reasons: []string{ReasonBand}},
			Sim:       LoadPoint{Load: points[0].Load, Throughput: 0.5},
			RelErr:    0.02,
			Tolerance: 0.08, Recorded: true, Within: true,
		},
		{
			Pick:   EscalationPick{Point: points[1], Reasons: []string{ReasonBand}},
			Sim:    LoadPoint{Load: points[1].Load, Throughput: 0.4},
			RelErr: 0.30, Recorded: false,
		},
	}
	et := EscalationTable(escs)
	if len(et.Rows) != 2 {
		t.Fatalf("EscalationTable has %d rows, want 2", len(et.Rows))
	}
	last := et.Rows[1]
	if last[len(last)-1] != "-" || last[len(last)-2] != "-" {
		t.Errorf("unrecorded scenario should render tolerance/within as \"-\", got %v", last)
	}
	b.Reset()
	if err := et.Render(&b); err != nil {
		t.Fatal(err)
	}
	if last[4] != ReasonBand {
		t.Errorf("escalation table reason %q, want %q", last[4], ReasonBand)
	}
}

// TestCalibrateMissingFamily: a preset set that cannot cover every
// scenario family must fail loudly, or the CI gate would silently
// shrink to the families that happen to be present.
func TestCalibrateMissingFamily(t *testing.T) {
	var sfOnly []Preset
	for _, p := range SmallPresets() {
		if p.Family() == "SF" {
			sfOnly = append(sfOnly, p)
		}
	}
	if len(sfOnly) == 0 {
		t.Fatal("no SF preset at quick scale")
	}
	if _, err := Calibrate(sfOnly, QuickScale()); err == nil {
		t.Error("Calibrate without MLFM/OFT presets succeeded, want missing-family error")
	}
}

// TestParseScreenKinds: each kind's parser inverts its String for every
// member in either case and rejects everything else; the fluid tier,
// not the parser, is what turns the adaptive kinds away.
func TestParseScreenKinds(t *testing.T) {
	for _, spell := range []func(string) string{strings.ToUpper, strings.ToLower, func(s string) string { return s }} {
		for _, k := range []AlgKind{AlgMIN, AlgINR, AlgA, AlgATh} {
			if got, err := ParseAlg(spell(k.String())); err != nil || got != k {
				t.Errorf("ParseAlg(%q) = %v, %v", spell(k.String()), got, err)
			}
		}
		for _, k := range []PatternKind{PatUNI, PatWC} {
			if got, err := ParsePattern(spell(k.String())); err != nil || got != k {
				t.Errorf("ParsePattern(%q) = %v, %v", spell(k.String()), got, err)
			}
		}
		for _, k := range []ExchangeKind{ExA2A, ExNN} {
			if got, err := ParseExchange(spell(k.String())); err != nil || got != k {
				t.Errorf("ParseExchange(%q) = %v, %v", spell(k.String()), got, err)
			}
		}
	}
	if _, err := ParseAlg("UGAL"); err == nil {
		t.Error("ParseAlg accepted an unknown name")
	}
	if _, err := ParsePattern("A2A"); err == nil {
		t.Error("ParsePattern accepted an exchange name")
	}
	if _, err := ParseExchange(""); err == nil {
		t.Error("ParseExchange accepted the empty name")
	}
	for _, k := range []AlgKind{AlgA, AlgATh} {
		if err := Screenable(k); !errors.Is(err, ErrUnsupportedRouting) {
			t.Errorf("Screenable(%s) = %v, want ErrUnsupportedRouting", k, err)
		}
	}
	if err := Screenable(AlgINR); err != nil {
		t.Errorf("Screenable(INR) = %v", err)
	}
	if got := (Preset{Name: "bare"}).Family(); got != "bare" {
		t.Errorf("Family of a parameterless preset = %q, want the name itself", got)
	}
}
