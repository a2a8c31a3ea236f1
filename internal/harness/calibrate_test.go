package harness

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// calibrated is the calibration gate's pass, Calibrate on the small
// presets at quick scale, run once per test binary: the gate and the
// rendered-table golden read the same nine verdicts.
var calibrated = sync.OnceValues(func() ([]Escalation, error) { return Calibrate(SmallPresets(), QuickScale()) })

// TestCalibrationTolerancesRecorded pins the shape of the golden
// scenario set: exactly nine scenarios — three families crossed with
// the three oblivious combinations — each with a sane recorded
// tolerance, unique names, and a working ToleranceFor lookup. A
// scenario silently dropped (or a tolerance "loosened" past any
// predictive value) fails here before the simulator is ever involved.
func TestCalibrationTolerancesRecorded(t *testing.T) {
	scens := Scenarios()
	if len(scens) != 9 {
		t.Fatalf("got %d golden scenarios, want 9", len(scens))
	}
	families := map[string]int{}
	names := map[string]bool{}
	for _, s := range scens {
		if names[s.Name()] {
			t.Errorf("duplicate scenario %s", s.Name())
		}
		names[s.Name()] = true
		families[s.Family]++
		if s.Tolerance <= 0 || s.Tolerance > 0.5 {
			t.Errorf("%s: tolerance %.3f outside (0, 0.5] — either unrecorded or too loose to predict anything", s.Name(), s.Tolerance)
		}
		tol, ok := ToleranceFor(s.Family, s.Pattern, s.Routing)
		if !ok || tol != s.Tolerance {
			t.Errorf("ToleranceFor(%s) = %.3f, %v; want %.3f, true", s.Name(), tol, ok, s.Tolerance)
		}
	}
	for _, fam := range []string{"SF", "MLFM", "OFT"} {
		if families[fam] != 3 {
			t.Errorf("family %s has %d scenarios, want 3", fam, families[fam])
		}
	}
	if _, ok := ToleranceFor("HyperX", PatUNI, AlgMIN); ok {
		t.Error("ToleranceFor invented a tolerance for an uncovered family")
	}
}

// TestCalibrationPinsSimulator is the calibration gate the CI
// fluid-calibration job runs: every golden scenario's fluid saturation
// estimate must land within its recorded tolerance of the simulator's
// delivered-throughput plateau on the reduced instances. A fluid-model
// regression (or a simulator change that moves the plateaus) fails
// here with the measured disagreement, which is also how the recorded
// tolerances were measured in the first place.
func TestCalibrationPinsSimulator(t *testing.T) {
	cals, err := calibrated()
	if err != nil {
		t.Fatal(err)
	}
	if len(cals) != len(Scenarios()) {
		t.Fatalf("calibrated %d scenarios, want %d", len(cals), len(Scenarios()))
	}
	for _, c := range cals {
		p := c.Pick.Point
		name := Scenario{Family: p.Family, Pattern: p.Pat, Routing: p.Alg}.Name()
		t.Logf("%-12s on %-12s fluid=%.3f sim=%.3f relerr=%.3f tol=%.3f",
			name, p.Topo, p.Throughput, c.Sim.Throughput, c.RelErr, c.Tolerance)
		if !c.Within {
			t.Errorf("%s on %s: relative error %.3f exceeds recorded tolerance %.3f (fluid %.3f vs sim %.3f)",
				name, p.Topo, c.RelErr, c.Tolerance, p.Throughput, c.Sim.Throughput)
		}
	}
}

// TestCalibrateHarness checks that the calibration pass comes back
// whole: one verdict per golden scenario, each with a topology, positive
// fluid and simulated throughputs and a finite relative error, and a
// rendered table with one row per scenario that names them all. It
// reads the gate's own pass (calibrated), so Calibrate runs once per
// test binary.
func TestCalibrateHarness(t *testing.T) {
	cals, err := calibrated()
	if err != nil {
		t.Fatal(err)
	}
	if len(cals) != 9 {
		t.Fatalf("Calibrate returned %d scenarios, want 9", len(cals))
	}
	for _, c := range cals {
		p := c.Pick.Point
		name := Scenario{Family: p.Family, Pattern: p.Pat, Routing: p.Alg}.Name()
		if p.Topo == "" || p.Throughput <= 0 || c.Sim.Throughput <= 0 {
			t.Errorf("%s: incomplete calibration %+v", name, c)
		}
		if math.IsInf(c.RelErr, 0) || math.IsNaN(c.RelErr) {
			t.Errorf("%s: relative error %v", name, c.RelErr)
		}
	}
	tab := CalibrationTable(cals)
	if len(tab.Rows) != len(cals) {
		t.Errorf("calibration table has %d rows, want %d", len(tab.Rows), len(cals))
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, s := range Scenarios() {
		if !strings.Contains(b.String(), s.Name()) {
			t.Errorf("calibration table lacks scenario %s:\n%s", s.Name(), b.String())
		}
	}
}
