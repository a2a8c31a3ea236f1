package harness

import "testing"

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
	cals, err := Calibrate(SmallPresets(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cals) != len(Scenarios()) {
		t.Fatalf("calibrated %d scenarios, want %d", len(cals), len(Scenarios()))
	}
	for _, c := range cals {
		t.Logf("%-12s on %-12s fluid=%.3f sim=%.3f relerr=%.3f tol=%.3f",
			c.Name(), c.Topo, c.FluidSat, c.SimSat, c.RelErr, c.Tolerance)
		if !c.Within {
			t.Errorf("%s on %s: relative error %.3f exceeds recorded tolerance %.3f (fluid %.3f vs sim %.3f)",
				c.Name(), c.Topo, c.RelErr, c.Tolerance, c.FluidSat, c.SimSat)
		}
	}
}
