package harness

import "fmt"

// This file pins the screening tier to the flit-level simulator: for
// each diameter-two family and each (pattern, routing) combination the
// paper evaluates obliviously, the fluid saturation estimate is
// compared against the simulator's delivered-throughput plateau at
// full offered load, and the relative disagreement must stay inside a
// recorded per-scenario tolerance. The tolerances are measured numbers
// (see EXPERIMENTS.md, "Screening tier"), not aspirations: they bound
// what the fluid abstraction ignores — finite buffers, credit stalls,
// VC arbitration — and tell a screening user how far an analytic
// answer can be trusted before escalating to simulation. The CI gate
// is TestCalibrationPinsSimulator.

// Scenario is one golden calibration scenario: a topology family under
// one oblivious (pattern, routing) combination, with the recorded
// tolerance the fluid estimate must meet.
type Scenario struct {
	Family  string // "SF", "MLFM" or "OFT"
	Pattern PatternKind
	Routing AlgKind
	// Tolerance is the recorded maximum relative error
	// |fluid - sim| / sim accepted for this scenario.
	Tolerance float64
}

// Name returns the scenario's stable identifier, e.g. "SF|UNI|MIN".
func (s Scenario) Name() string {
	return fmt.Sprintf("%s|%s|%s", s.Family, s.Pattern, s.Routing)
}

// Scenarios returns the 9 golden calibration scenarios: the three
// diameter-two families crossed with the oblivious combinations of
// Section 4.3 (uniform/minimal, worst-case/minimal,
// worst-case/indirect-random). Tolerances are measured numbers: the
// relative saturation error observed at quick scale on the reduced
// instances (TestCalibrationPinsSimulator logs the current values)
// with roughly 1.5x headroom, and a small floor where the fluid
// prediction is exact — there the residual is pure simulator noise
// (warm-up transients, finite-buffer queueing).
//
// Measured relative errors behind these numbers (quick scale, seed 1):
// SF 0.045/0.107/0.055, MLFM 0.117/0.000/0.161, OFT 0.134/0.000/0.092
// for UNI|MIN / WC|MIN / WC|INR respectively. Uniform traffic
// saturates near full bandwidth, where the queueing the fluid model
// ignores costs the simulator the most, so those errors dominate;
// SF's WC|MIN error is the adversarial permutation concentrating flows
// onto single minimal paths, which the simulator resolves slightly
// less pessimistically than the even-split abstraction.
func Scenarios() []Scenario {
	return []Scenario{
		{Family: "SF", Pattern: PatUNI, Routing: AlgMIN, Tolerance: 0.08},
		{Family: "SF", Pattern: PatWC, Routing: AlgMIN, Tolerance: 0.16},
		{Family: "SF", Pattern: PatWC, Routing: AlgINR, Tolerance: 0.10},
		{Family: "MLFM", Pattern: PatUNI, Routing: AlgMIN, Tolerance: 0.18},
		{Family: "MLFM", Pattern: PatWC, Routing: AlgMIN, Tolerance: 0.03},
		{Family: "MLFM", Pattern: PatWC, Routing: AlgINR, Tolerance: 0.24},
		{Family: "OFT", Pattern: PatUNI, Routing: AlgMIN, Tolerance: 0.20},
		{Family: "OFT", Pattern: PatWC, Routing: AlgMIN, Tolerance: 0.03},
		{Family: "OFT", Pattern: PatWC, Routing: AlgINR, Tolerance: 0.14},
	}
}

// ToleranceFor returns the recorded tolerance of the scenario matching
// (family, pattern, routing), or (0, false) when no scenario covers
// the combination (adaptive routing, non-diameter-two families).
func ToleranceFor(family string, pat PatternKind, alg AlgKind) (float64, bool) {
	for _, s := range Scenarios() {
		if s.Family == family && s.Pattern == pat && s.Routing == alg {
			return s.Tolerance, true
		}
	}
	return 0, false
}

// Representatives returns each family's representative preset, keyed
// by Family: the first preset of the family in presets (for Slim Fly
// the smallest p, the order the preset lists keep). Calibrate and
// the per-family adaptive figures run on it.
func Representatives(presets []Preset) map[string]Preset {
	reps := make(map[string]Preset)
	for _, p := range presets {
		if _, ok := reps[p.Family()]; !ok {
			reps[p.Family()] = p
		}
	}
	return reps
}

// Calibrate pins the fluid model against the simulator: each of the
// nine golden scenarios (Scenarios) becomes one escalation pick, the
// scenario's fluid point at full offered load on its family's
// representative preset, where the fluid throughput is the saturation
// estimate. The picks run through the escalation path (Escalate's
// simulate-and-score code, under "calibrate|" point keys, so
// calibration is resumable and -j-parallel like any sweep and is not
// counted as an escalation), and each verdict scores the simulator's
// delivered plateau against the scenario's recorded tolerance. Every
// scenario family must have a preset, or the gate would silently
// shrink.
func Calibrate(presets []Preset, scale Scale) ([]Escalation, error) {
	reps := Representatives(presets)
	scens := Scenarios()
	for _, s := range scens {
		if _, ok := reps[s.Family]; !ok {
			return nil, fmt.Errorf("harness: calibration scenario %s has no preset of family %s", s.Name(), s.Family)
		}
	}
	var firsts []Preset
	for _, p := range presets {
		if reps[p.Family()].Name == p.Name {
			firsts = append(firsts, p)
		}
	}
	scr, err := NewScreener(firsts, scale)
	if err != nil {
		return nil, err
	}
	picks := make([]EscalationPick, len(scens))
	for i, s := range scens {
		if picks[i].Point, err = scr.Point(reps[s.Family].Name, s.Routing, s.Pattern, 1.0); err != nil {
			return nil, err
		}
	}
	return scr.escalate("calibrate", picks, scale)
}

// CalibrationTable renders a calibration pass.
func CalibrationTable(cals []Escalation) *Table {
	t := &Table{
		Title:  "Fluid-model calibration against simulator goldens",
		Header: []string{"scenario", "topology", "fluid sat", "sim sat", "rel err", "tolerance", "within"},
	}
	for _, c := range cals {
		p := c.Pick.Point
		t.AddRow(Scenario{Family: p.Family, Pattern: p.Pat, Routing: p.Alg}.Name(), p.Topo,
			f3(p.Throughput), f3(c.Sim.Throughput), f3(c.RelErr), f3(c.Tolerance), fmt.Sprintf("%v", c.Within))
	}
	return t
}
