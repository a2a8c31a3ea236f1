package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"diam2/internal/fluid"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Screener is the harness's one fluid evaluator: it answers individual
// screening points on demand, for grid callers (ScreenSweep, Calibrate,
// FluidSaturationTable) and for callers like the design-space query
// service, where points arrive one query at a time. Topology builds,
// fluid models, worst-case permutations and per-(routing, pattern)
// link loads are computed once and cached for the Screener's lifetime,
// so a warm Point call is a single EstimateAt evaluation. All methods
// are safe for concurrent use.
//
// A Screener pins what screening derives from its Scale — the sim
// config, the pattern seed and the telemetry registry — so a point
// answered here is value-identical whichever caller asks.
type Screener struct {
	cfg     sim.Config
	patSeed int64
	reg     *telemetry.Registry

	mu     sync.Mutex
	topos  map[string]*screenerTopo
	combos map[screenerComboKey]*screenCombo
}

// screenerTopo caches one preset's built topology, fluid model and
// (lazily) its worst-case permutation.
type screenerTopo struct {
	preset Preset
	family string
	tp     topo.Topology
	model  *fluid.Model
	wcOnce sync.Once
	wc     *traffic.Permutation
	wcErr  error
}

// screenCombo lazily computes the load-independent link loads of one
// (topology, routing, pattern) combination, shared by every load of
// its ladder whichever worker gets there first.
type screenCombo struct {
	once  sync.Once
	loads fluid.LinkLoads
	err   error
}

type screenerComboKey struct {
	topo string
	alg  AlgKind
	pat  PatternKind
}

// NewScreener builds a screener over the presets at the given scale.
// Topologies are built eagerly (errors surface here, not per query);
// everything load- and pattern-dependent is computed lazily.
func NewScreener(presets []Preset, scale Scale) (*Screener, error) {
	s := &Screener{
		cfg:     scale.SimConfig(1),
		patSeed: scale.patternSeed(),
		reg:     scale.Telemetry.Registry,
		topos:   make(map[string]*screenerTopo, len(presets)),
		combos:  make(map[screenerComboKey]*screenCombo),
	}
	for _, p := range presets {
		if _, dup := s.topos[p.Name]; dup {
			return nil, fmt.Errorf("harness: duplicate preset %s", p.Name)
		}
		tp, err := p.Build()
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", p.Name, err)
		}
		s.topos[p.Name] = &screenerTopo{
			preset: p,
			family: p.Family(),
			tp:     tp,
			model:  fluid.New(tp),
		}
	}
	return s, nil
}

// Preset returns the named preset.
func (s *Screener) Preset(name string) (Preset, bool) {
	st, ok := s.topos[name]
	if !ok {
		return Preset{}, false
	}
	return st.preset, true
}

// topoState returns the cached per-topology state.
func (s *Screener) topoState(name string) (*screenerTopo, error) {
	if st, ok := s.topos[name]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("harness: unknown topology %q (know %d presets)", name, len(s.topos))
}

// worstCase returns the topology's pinned worst-case permutation,
// drawing it on first use with the screener's pattern seed.
func (st *screenerTopo) worstCase(patSeed int64) (*traffic.Permutation, error) {
	st.wcOnce.Do(func() {
		perm, err := traffic.WorstCase(st.tp, rand.New(rand.NewSource(patSeed)))
		if err != nil {
			st.wcErr = err
			return
		}
		st.wc = &perm
	})
	return st.wc, st.wcErr
}

// ErrUnsupportedRouting: the requested routing has no fluid
// counterpart (adaptive routing decides per packet on queue state the
// fluid abstraction does not carry, so it is an error, not an
// approximation).
var ErrUnsupportedRouting = errors.New("fluid: unsupported routing (the fluid model covers MIN and INR only)")

// fluidRoute returns the fluid builder of a routing kind. This switch
// is where "the fluid tier answers MIN and INR only" is decided.
func fluidRoute(alg AlgKind) (func(*fluid.Model, fluid.Demand) fluid.LinkLoads, error) {
	switch alg {
	case AlgMIN:
		return (*fluid.Model).Minimal, nil
	case AlgINR:
		return (*fluid.Model).Valiant, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnsupportedRouting, alg)
}

// Screenable returns nil for the routing kinds the fluid tier answers
// and an error wrapping ErrUnsupportedRouting for the rest.
func Screenable(alg AlgKind) error {
	_, err := fluidRoute(alg)
	return err
}

// demand returns the fluid demand of a pattern kind on the topology.
func (s *Screener) demand(st *screenerTopo, pat PatternKind) (fluid.Demand, error) {
	switch pat {
	case PatUNI:
		return st.model.Uniform()
	case PatWC:
		wc, err := st.worstCase(s.patSeed)
		if err != nil {
			return fluid.Demand{}, err
		}
		return st.model.Permutation(*wc)
	}
	return fluid.Demand{}, fmt.Errorf("harness: the fluid tier has no demand for pattern %s", pat)
}

// combo returns the shared link-load computation for one
// (topology, routing, pattern), creating it on first use.
func (s *Screener) combo(st *screenerTopo, alg AlgKind, pat PatternKind) (*screenCombo, error) {
	route, err := fluidRoute(alg)
	if err != nil {
		return nil, err
	}
	key := screenerComboKey{st.preset.Name, alg, pat}
	s.mu.Lock()
	c, ok := s.combos[key]
	if !ok {
		c = &screenCombo{}
		s.combos[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		var d fluid.Demand
		if d, c.err = s.demand(st, pat); c.err == nil {
			c.loads = route(st.model, d)
		}
	})
	return c, c.err
}

// Point answers one screening point analytically.
func (s *Screener) Point(topoName string, alg AlgKind, pat PatternKind, load float64) (ScreenPoint, error) {
	st, err := s.topoState(topoName)
	if err != nil {
		return ScreenPoint{}, err
	}
	c, err := s.combo(st, alg, pat)
	if err != nil {
		return ScreenPoint{}, err
	}
	return ScreenPoint{
		Topo:     st.preset.Name,
		Family:   st.family,
		Alg:      alg,
		Pat:      pat,
		Estimate: fluid.EstimateAt(c.loads, load, s.cfg),
	}, nil
}

// SchedPoint returns the scheduler point of one fluid-tier screening
// point: key ScreenPointKey, run Point plus the screening counters.
// ScreenSweep and the query service both submit exactly this, so the
// store records and counters of the two paths cannot drift.
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
