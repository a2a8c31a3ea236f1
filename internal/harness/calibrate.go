package harness

import (
	"fmt"
	"math"

	"diam2/internal/sim"
)

// Calibration pins the screening tier to the flit-level simulator: for
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

// Calibration is one scenario's comparison of the fluid estimate
// against the simulator.
type Calibration struct {
	Scenario
	Topo     string  // concrete instance the comparison ran on
	FluidSat float64 // analytic saturation estimate
	SimSat   float64 // simulator delivered-throughput plateau at full offered load
	RelErr   float64 // |FluidSat - SimSat| / SimSat
	Within   bool    // RelErr <= Tolerance
}

// Compare evaluates the scenario against a measured simulator
// saturation.
func (s Scenario) Compare(topoName string, fluidSat, simSat float64) Calibration {
	rel := math.Inf(1)
	if simSat > 0 {
		rel = math.Abs(fluidSat-simSat) / simSat
	}
	return Calibration{
		Scenario: s,
		Topo:     topoName,
		FluidSat: fluidSat,
		SimSat:   simSat,
		RelErr:   rel,
		Within:   rel <= s.Tolerance,
	}
}

// Calibrate pins the fluid model against the simulator: for each of
// the nine golden scenarios (Scenarios) it computes the analytic
// saturation estimate and the simulator's delivered-throughput plateau
// at full offered load on the first preset of the scenario's family,
// and scores the relative disagreement against the scenario's recorded
// tolerance. The simulator side runs through the scheduler (sim-tier
// "calibrate|" keys), so calibration is resumable and -j-parallel like
// any sweep. Every scenario family must have a preset, or the gate
// would silently shrink.
func Calibrate(presets []Preset, scale Scale) ([]Calibration, error) {
	first := make(map[string]Preset) // family -> its first preset
	var firsts []Preset
	for _, p := range presets {
		if _, ok := first[p.Family()]; !ok {
			first[p.Family()] = p
			firsts = append(firsts, p)
		}
	}
	scens := Scenarios()
	for _, s := range scens {
		if _, ok := first[s.Family]; !ok {
			return nil, fmt.Errorf("harness: calibration scenario %s has no preset of family %s", s.Name(), s.Family)
		}
	}
	scr, err := NewScreener(firsts, scale)
	if err != nil {
		return nil, err
	}
	fluidSats := make([]float64, len(scens))
	points := make([]Point[LoadPoint], 0, len(scens))
	for i, s := range scens {
		preset := first[s.Family]
		sp, err := scr.Point(preset.Name, s.Routing, s.Pattern, 1.0)
		if err != nil {
			return nil, err
		}
		fluidSats[i] = sp.Saturation
		tp := scr.topos[preset.Name].tp
		points = append(points, syntheticPoint(pointKey("calibrate", preset.Name, s.Routing, s.Pattern, 1.0), tp, s.Routing, preset.BestAdaptive, s.Pattern, 1.0, scale,
			func(res sim.Results) LoadPoint { return loadPoint(1.0, res) }))
	}
	sims, err := Collect(scale, points)
	if err != nil {
		return nil, err
	}
	out := make([]Calibration, len(scens))
	for i, s := range scens {
		out[i] = s.Compare(first[s.Family].Name, fluidSats[i], sims[i].Throughput)
	}
	return out, nil
}

// CalibrationTable renders a calibration pass.
func CalibrationTable(cals []Calibration) *Table {
	t := &Table{
		Title:  "Fluid-model calibration against simulator goldens",
		Header: []string{"scenario", "topology", "fluid sat", "sim sat", "rel err", "tolerance", "within"},
	}
	for _, c := range cals {
		t.AddRow(c.Name(), c.Topo, f3(c.FluidSat), f3(c.SimSat), f3(c.RelErr), f3(c.Tolerance), fmt.Sprintf("%v", c.Within))
	}
	return t
}
