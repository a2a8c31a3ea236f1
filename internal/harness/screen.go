package harness

import (
	"fmt"
	"math"
	"strings"

	"diam2/internal/fluid"
	"diam2/internal/sim"
	"diam2/internal/store"
)

// This file is the screening tier: the fluid model promoted to a
// first-class experiment generator. Screener.Sweep answers a full
// (topology, routing, pattern, load) grid analytically — thousands of
// points in seconds — through the same scheduler every simulated sweep
// uses, so -j fan-out, progress reporting, cancellation and the
// content-addressed store come for free; results are keyed under
// store.TierFluid so they never alias flit-level results.
// SelectEscalations then picks the neighborhood where analytic
// fidelity runs out, the loads within a band of the predicted
// saturation, and Screener.Escalate re-runs exactly those points at
// flit-level fidelity, checking each against the calibration
// tolerances recorded in Scenarios. Calibrate maintains those
// tolerances: it escalates the nine golden scenarios' full-load points
// through the same path, so the fluid saturation estimate is scored
// against the simulator's delivered plateau by the same code.

// ScreenPoint is one answered screening point: the grid coordinates
// plus the fluid model's estimate. It is the store payload of the
// fluid tier, so every field must survive a JSON round trip.
type ScreenPoint struct {
	Topo   string      // topology instance, e.g. "SF(q=5,p=3)"
	Family string      // topology family: "SF", "MLFM", "OFT", ...
	Alg    AlgKind     // routing, by name on the wire
	Pat    PatternKind // pattern, by name on the wire
	fluid.Estimate
}

// ScreenSpec selects the grid a screening sweep covers. Zero-value
// fields fall back to the full oblivious grid: MIN and INR, UNI and
// WC, the DefaultLoads ladder.
type ScreenSpec struct {
	Algs  []AlgKind
	Pats  []PatternKind
	Loads []float64
}

func (s ScreenSpec) withDefaults() ScreenSpec {
	if len(s.Algs) == 0 {
		s.Algs = []AlgKind{AlgMIN, AlgINR}
	}
	if len(s.Pats) == 0 {
		s.Pats = []PatternKind{PatUNI, PatWC}
	}
	if len(s.Loads) == 0 {
		s.Loads = DefaultLoads()
	}
	return s
}

// ScreenGridLoads returns n evenly spaced offered loads in (0, 1] —
// the dense ladders that make screening worthwhile (a 90-load grid
// over 3 presets x 2 algorithms x 2 patterns is a 1080-point sweep the
// fluid model answers in seconds).
func ScreenGridLoads(n int) []float64 {
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = float64(i+1) / float64(n)
	}
	return loads
}

// ScreenPointKey is the scheduler point key of one fluid-tier
// screening point. Everything that consumes or produces screening
// results — ScreenSweep, the query service, smoke scripts diffing
// stores — must agree on this format, or cache hits silently stop
// matching.
func ScreenPointKey(topoName string, alg AlgKind, pat PatternKind, load float64) string {
	return pointKey("screen", topoName, alg, pat, load)
}

// EscalatePointKey is the scheduler point key of one escalated
// (sim-tier) screening point, shared by Screener.Escalate and the query
// service for the same reason as ScreenPointKey.
func EscalatePointKey(topoName string, alg AlgKind, pat PatternKind, load float64) string {
	return pointKey("escalate", topoName, alg, pat, load)
}

// Family names the topology family of a preset: "SF" for Slim Fly
// style presets, otherwise the name up to the parameter list
// ("MLFM(h=6)" -> "MLFM").
func (p Preset) Family() string {
	if p.SFStyle {
		return "SF"
	}
	if i := strings.IndexByte(p.Name, '('); i > 0 {
		return p.Name[:i]
	}
	return p.Name
}

// ScreenSweep answers the spec's grid over the presets: NewScreener
// followed by Sweep.
func ScreenSweep(presets []Preset, spec ScreenSpec, scale Scale) ([]ScreenPoint, error) {
	scr, err := NewScreener(presets, scale)
	if err != nil {
		return nil, err
	}
	return scr.Sweep(spec, scale)
}

// Sweep answers the spec's grid over the screener's presets
// analytically: each (topology, algorithm, pattern, load) tuple is one
// SchedPoint — fanned out by scale.Sched, reported to
// scale.Sched.OnPoint, and stored (when scale.Sched.Store is set)
// under the fluid tier. Results arrive in grid order: presets in the
// order NewScreener was given them, then algorithms, patterns, loads.
func (s *Screener) Sweep(spec ScreenSpec, scale Scale) ([]ScreenPoint, error) {
	spec = spec.withDefaults()
	for _, alg := range spec.Algs {
		if err := Screenable(alg); err != nil {
			return nil, err
		}
	}
	scale.Tier = store.TierFluid
	var points []Point[ScreenPoint]
	for _, name := range s.order {
		for _, alg := range spec.Algs {
			for _, pat := range spec.Pats {
				for _, load := range spec.Loads {
					points = append(points, s.SchedPoint(name, alg, pat, load))
				}
			}
		}
	}
	return Collect(scale, points)
}

// ReasonBand is the one escalation reason: the offered load lies
// within the band around the predicted saturation.
const ReasonBand = "band"

// EscalationPick is one screened point selected for flit-level
// re-simulation, with the reason it was picked.
type EscalationPick struct {
	Point   ScreenPoint
	Reasons []string // always [ReasonBand]
}

// SelectEscalations picks the screened points worth the simulator's
// time: every point whose offered load falls within band (a relative
// fraction, e.g. 0.15) of its predicted saturation load, the region
// where the fluid model's open-loop abstraction is least trustworthy.
// The rule reads each point alone, so picks keep the input order.
// Family crossovers need no rule: a screened throughput is min(load,
// saturation), so two topologies' screened curves never swap rank
// (TestScreenThroughputNeverCrosses).
func SelectEscalations(points []ScreenPoint, band float64) []EscalationPick {
	var picks []EscalationPick
	for _, p := range points {
		if band > 0 && p.Saturation > 0 && math.Abs(p.Load-p.Saturation) <= band*p.Saturation {
			picks = append(picks, EscalationPick{Point: p, Reasons: []string{ReasonBand}})
		}
	}
	return picks
}

// Escalation is one pick re-run at flit-level fidelity, with the
// fluid-versus-simulator disagreement and its verdict against the
// recorded calibration tolerance. The JSON tags are the verdict's wire
// form in the query service's escalation tickets.
type Escalation struct {
	Pick EscalationPick `json:"-"`
	Sim  LoadPoint      `json:"sim"` // simulator answer at the pick's offered load
	// RelErr is |fluid throughput - sim throughput| / sim throughput.
	RelErr float64 `json:"rel_err,omitempty"`
	// Tolerance is the recorded calibration tolerance for the pick's
	// (family, pattern, routing) scenario; Recorded is false (and
	// Within meaningless) when no scenario covers it.
	Tolerance float64 `json:"tolerance,omitempty"`
	Recorded  bool    `json:"recorded,omitempty"`
	Within    bool    `json:"within,omitempty"`
}

// Escalate re-runs the picked points through the flit-level simulator
// on the screener's built topologies and scores each against its
// fluid estimate (ordinary sim-tier store keys, prefixed "escalate|"
// so they never collide with figure sweeps). Every pick must name one
// of the screener's presets.
func (s *Screener) Escalate(picks []EscalationPick, scale Scale) ([]Escalation, error) {
	return s.escalate("escalate", picks, scale)
}

// escalate is the one place a fluid estimate is scored against the
// simulator: it runs each pick through the scheduler under the point
// key pointKey(kind, ...) and returns the relative error of the pick's
// fluid throughput against the simulated one (+Inf when the simulator
// delivered nothing) with its verdict. Only "escalate" runs advance
// screen.escalations; calibration ("calibrate") is not an escalation.
func (s *Screener) escalate(kind string, picks []EscalationPick, scale Scale) ([]Escalation, error) {
	points := make([]Point[LoadPoint], 0, len(picks))
	for _, pick := range picks {
		st, err := s.topoState(pick.Point.Topo)
		if err != nil {
			return nil, err
		}
		alg, pat, load := pick.Point.Alg, pick.Point.Pat, pick.Point.Load
		points = append(points, syntheticPoint(pointKey(kind, st.preset.Name, alg, pat, load), st.tp, alg, st.preset.BestAdaptive, pat, load, scale,
			func(res sim.Results) LoadPoint {
				if kind == "escalate" {
					s.reg.Add("screen.escalations", 1)
				}
				return loadPoint(load, res)
			}))
	}
	sims, err := Collect(scale, points)
	if err != nil {
		return nil, err
	}
	out := make([]Escalation, len(picks))
	for i, pick := range picks {
		p := pick.Point
		tol, recorded := ToleranceFor(p.Family, p.Pat, p.Alg)
		rel := math.Inf(1)
		if sims[i].Throughput > 0 {
			rel = math.Abs(p.Throughput-sims[i].Throughput) / sims[i].Throughput
		}
		out[i] = Escalation{
			Pick:      pick,
			Sim:       sims[i],
			RelErr:    rel,
			Tolerance: tol,
			Recorded:  recorded,
			Within:    recorded && rel <= tol,
		}
	}
	return out, nil
}

// screenerComboKey names one (topology, routing, pattern) ladder of a
// screening sweep.
type screenerComboKey struct {
	topo string
	alg  AlgKind
	pat  PatternKind
}

// ScreenTable summarizes a screening sweep one row per (topology,
// algorithm, pattern) combination — the load-independent analytic
// facts, plus the ladder size.
func ScreenTable(points []ScreenPoint) *Table {
	t := &Table{
		Title:  "Screening tier: fluid-model estimates",
		Header: []string{"topology", "routing", "pattern", "saturation", "max link load", "avg hops", "loads"},
	}
	counts := make(map[screenerComboKey]int)
	var order []screenerComboKey
	rep := make(map[screenerComboKey]ScreenPoint)
	for _, p := range points {
		k := screenerComboKey{p.Topo, p.Alg, p.Pat}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
			rep[k] = p
		}
		counts[k]++
	}
	for _, k := range order {
		p := rep[k]
		t.AddRow(k.topo, k.alg.String(), k.pat.String(), f3(p.Saturation), f3(p.MaxLinkLoad), f2(p.AvgHops), d(counts[k]))
	}
	return t
}

// EscalationTable renders an escalation pass: each simulated point
// against its fluid prediction and calibration verdict.
func EscalationTable(escs []Escalation) *Table {
	t := &Table{
		Title:  "Escalated points: fluid estimate vs. flit-level simulation",
		Header: []string{"topology", "routing", "pattern", "load", "reason", "fluid thr", "sim thr", "rel err", "tolerance", "within"},
	}
	for _, e := range escs {
		tol, within := "-", "-"
		if e.Recorded {
			tol = f3(e.Tolerance)
			within = fmt.Sprintf("%v", e.Within)
		}
		p := e.Pick.Point
		t.AddRow(p.Topo, p.Alg.String(), p.Pat.String(), f3(p.Load), strings.Join(e.Pick.Reasons, "+"),
			f3(p.Throughput), f3(e.Sim.Throughput), f3(e.RelErr), tol, within)
	}
	return t
}

// FluidSaturationTable is the shared analytic saturation summary
// rendered by both diam2topo -fluid and diam2report: the Section
// 4.2/4.3 saturation predictions for each preset under the three
// oblivious combinations, without simulation. seed pins the worst-case
// permutation draw.
func FluidSaturationTable(presets []Preset, seed int64) (*Table, error) {
	t := &Table{
		Title:  "Fluid-model saturation loads (analytic; fraction of injection bandwidth)",
		Header: []string{"topology", "UNI MIN", "WC MIN", "WC INR"},
	}
	scr, err := NewScreener(presets, Scale{Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, p := range presets {
		row := []string{p.Name}
		for _, c := range []struct {
			alg AlgKind
			pat PatternKind
		}{{AlgMIN, PatUNI}, {AlgMIN, PatWC}, {AlgINR, PatWC}} {
			sp, err := scr.Point(p.Name, c.alg, c.pat, 1.0)
			if err != nil {
				return nil, err
			}
			row = append(row, f3(sp.Saturation))
		}
		t.AddRow(row...)
	}
	return t, nil
}
