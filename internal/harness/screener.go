package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"diam2/internal/fluid"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Screener is the harness's one fluid evaluator: it answers individual
// screening points for grid callers (Sweep, Calibrate,
// FluidSaturationTable) and for callers like the design-space query
// service, where points arrive one query at a time. NewScreener
// computes every preset's oblivious link loads — MIN and INR under UNI
// and WC — up front, so a Point call is a map lookup plus one
// EstimateAt evaluation. A built Screener is read-only and safe for
// concurrent use.
//
// A Screener pins what screening derives from its Scale — the sim
// config, the pattern seed and the telemetry registry — so a point
// answered here is value-identical whichever caller asks.
type Screener struct {
	cfg   sim.Config
	reg   *telemetry.Registry
	topos map[string]*screenerTopo
	order []string // preset names in NewScreener's order
}

// screenerTopo is one preset's built topology and its link loads per
// (routing, pattern).
type screenerTopo struct {
	preset Preset
	family string
	tp     topo.Topology
	loads  map[oblivious]fluid.LinkLoads
}

// oblivious is one (routing, pattern) combination the fluid tier
// answers.
type oblivious struct {
	alg AlgKind
	pat PatternKind
}

// NewScreener builds a screener over the presets at the given scale:
// each preset's topology, fluid model, UNI and WC demands and the four
// MIN/INR × UNI/WC link loads, one scheduler point per preset on
// scale.Sched's worker pool and context. Nothing is stored, reported
// or leased for these points, and the demands are dropped once the
// loads exist. Errors (a failed build, a disconnected topology,
// cancellation) surface here, not per query.
//
// The build also computes INR under UNI, which FluidSaturationTable
// and Calibrate never read (DESIGN §16 gives its cost).
func NewScreener(presets []Preset, scale Scale) (*Screener, error) {
	points := make([]Point[*screenerTopo], len(presets))
	for i, p := range presets {
		points[i] = Point[*screenerTopo]{Key: "screener|" + p.Name, Run: func(context.Context, int64) (*screenerTopo, error) {
			return screenTopo(p, scale.patternSeed())
		}}
	}
	build := scale
	build.Sched = Sched{Workers: scale.Sched.Workers, Ctx: scale.Sched.Ctx}
	built, err := Collect(build, points)
	if err != nil {
		return nil, err
	}
	s := &Screener{cfg: scale.SimConfig(1), reg: scale.Telemetry.Registry, topos: make(map[string]*screenerTopo, len(built))}
	for _, st := range built {
		if _, dup := s.topos[st.preset.Name]; dup {
			return nil, fmt.Errorf("harness: duplicate preset %s", st.preset.Name)
		}
		s.topos[st.preset.Name] = st
		s.order = append(s.order, st.preset.Name)
	}
	return s, nil
}

// screenTopo builds one preset's topology and its oblivious link
// loads, drawing the worst-case permutation with patSeed.
func screenTopo(p Preset, patSeed int64) (*screenerTopo, error) {
	tp, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("harness: building %s: %w", p.Name, err)
	}
	m := fluid.New(tp)
	uni, err := m.Uniform()
	if err != nil {
		return nil, err
	}
	perm, err := traffic.WorstCase(tp, rand.New(rand.NewSource(patSeed)))
	if err != nil {
		return nil, err
	}
	wc, err := m.Permutation(perm)
	if err != nil {
		return nil, err
	}
	st := &screenerTopo{preset: p, family: p.Family(), tp: tp, loads: make(map[oblivious]fluid.LinkLoads, 4)}
	for pat, d := range map[PatternKind]fluid.Demand{PatUNI: uni, PatWC: wc} {
		st.loads[oblivious{AlgMIN, pat}] = m.Minimal(d)
		st.loads[oblivious{AlgINR, pat}] = m.Valiant(d)
	}
	return st, nil
}

// Preset returns the named preset.
func (s *Screener) Preset(name string) (Preset, bool) {
	st, ok := s.topos[name]
	if !ok {
		return Preset{}, false
	}
	return st.preset, true
}

// topoState returns the per-topology state.
func (s *Screener) topoState(name string) (*screenerTopo, error) {
	if st, ok := s.topos[name]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("harness: unknown topology %q (know %d presets)", name, len(s.topos))
}

// ErrUnsupportedRouting: the requested routing has no fluid
// counterpart (adaptive routing decides per packet on queue state the
// fluid abstraction does not carry, so it is an error, not an
// approximation).
var ErrUnsupportedRouting = errors.New("fluid: unsupported routing (the fluid model covers MIN and INR only)")

// Screenable returns nil for the routing kinds the fluid tier answers
// and an error wrapping ErrUnsupportedRouting for the rest. This is
// where "the fluid tier answers MIN and INR only" is decided.
func Screenable(alg AlgKind) error {
	if alg == AlgMIN || alg == AlgINR {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrUnsupportedRouting, alg)
}

// Point answers one screening point analytically.
func (s *Screener) Point(topoName string, alg AlgKind, pat PatternKind, load float64) (ScreenPoint, error) {
	st, err := s.topoState(topoName)
	if err != nil {
		return ScreenPoint{}, err
	}
	loads, ok := st.loads[oblivious{alg, pat}]
	if !ok {
		if err := Screenable(alg); err != nil {
			return ScreenPoint{}, err
		}
		return ScreenPoint{}, fmt.Errorf("harness: the fluid tier has no demand for pattern %s", pat)
	}
	return ScreenPoint{
		Topo:     st.preset.Name,
		Family:   st.family,
		Alg:      alg,
		Pat:      pat,
		Estimate: fluid.EstimateAt(loads, load, s.cfg),
	}, nil
}

// SchedPoint returns the scheduler point of one fluid-tier screening
// point: key ScreenPointKey, run Point plus the screening counters.
// Sweep and the query service both submit exactly this, so the store
// records and counters of the two paths cannot drift.
func (s *Screener) SchedPoint(topoName string, alg AlgKind, pat PatternKind, load float64) Point[ScreenPoint] {
	return Point[ScreenPoint]{
		Key: ScreenPointKey(topoName, alg, pat, load),
		Run: func(context.Context, int64) (ScreenPoint, error) {
			sp, err := s.Point(topoName, alg, pat, load)
			if err == nil {
				s.reg.Add("screen.estimates", 1)
			}
			return sp, err
		},
	}
}
