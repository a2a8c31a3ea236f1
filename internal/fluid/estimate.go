package fluid

import (
	"errors"
	"fmt"
	"math"

	"diam2/internal/sim"
	"diam2/internal/traffic"
)

// This file is the screening-tier surface of the fluid model: a
// (pattern, routing, load) point is answered analytically in
// microseconds with the same axes the flit-level simulator sweeps, so
// the harness can screen thousands of design-space points and reserve
// simulation for the neighborhoods where analytic fidelity runs out
// (near saturation, family crossovers). See harness.ScreenSweep.

// Routing selects the analytic routing model of an estimate. The fluid
// model covers the oblivious strategies only: adaptive (UGAL-family)
// routing decides per packet on queue state the fluid abstraction does
// not carry, so requesting it is an error, not an approximation.
type Routing int

// Analytic routing models.
const (
	RoutingMinimal Routing = iota // MIN: even split over all minimal paths
	RoutingValiant                // INR: uniform split over indirect intermediates
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	switch r {
	case RoutingMinimal:
		return "MIN"
	case RoutingValiant:
		return "INR"
	}
	return fmt.Sprintf("Routing(%d)", int(r))
}

// Pattern selects the analytic traffic pattern.
type Pattern int

// Analytic traffic patterns.
const (
	PatternUniform   Pattern = iota // global uniform random
	PatternWorstCase                // per-topology adversarial permutation
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	if p == PatternUniform {
		return "UNI"
	}
	return "WC"
}

// Errors the screening surface reports instead of silently returning
// zero loads.
var (
	// ErrDisconnected: some endpoint-router pair has no path, so flows
	// between them vanish from the load accounting and every derived
	// number (saturation, latency) would be silently optimistic.
	ErrDisconnected = errors.New("fluid: topology graph is disconnected between endpoint routers")
	// ErrUnsupportedRouting: the requested routing has no fluid
	// counterpart (adaptive routing depends on queue state).
	ErrUnsupportedRouting = errors.New("fluid: unsupported routing (the fluid model covers MIN and INR only)")
)

// Estimate is one analytic screening answer: what the fluid model
// predicts the simulator would measure for a (pattern, routing, load)
// point.
type Estimate struct {
	Load        float64 // offered load the estimate was taken at
	Saturation  float64 // injection fraction at which the hottest link saturates
	MaxLinkLoad float64 // relative load of the hottest directed link
	AvgHops     float64 // flow-weighted mean router hops
	Throughput  float64 // min(Load, Saturation): the predicted delivery plateau
	// AvgLatency is the M/D/1 mean packet latency in cycles at the
	// offered load; negative means the load is at or beyond saturation,
	// where the open-loop queueing delay is unbounded. (A sentinel, not
	// +Inf, so the estimate survives a JSON round trip through the
	// experiment store.)
	AvgLatency float64
}

// Saturated reports whether the estimate's offered load is at or past
// the predicted saturation point.
func (e Estimate) Saturated() bool { return e.AvgLatency < 0 }

// Check reports whether the model's topology supports analytic
// estimates: every endpoint-router pair must be connected. The scan
// runs once at New and is cached.
func (m *Model) Check() error { return m.connErr }

// Loads computes the directed link loads and the flow-weighted mean
// hop count for one (pattern, routing) combination. wc supplies the
// adversarial permutation for PatternWorstCase (built by the caller,
// typically traffic.WorstCase, so the pattern seed stays under the
// caller's control); it is ignored for PatternUniform.
//
// The loads are independent of offered load — screening sweeps compute
// them once per combination and evaluate the whole load ladder against
// them via EstimateAt.
func (m *Model) Loads(pat Pattern, rt Routing, wc *traffic.Permutation) (LinkLoads, float64, error) {
	if err := m.Check(); err != nil {
		return LinkLoads{}, 0, err
	}
	if rt != RoutingMinimal && rt != RoutingValiant {
		return LinkLoads{}, 0, fmt.Errorf("%w: %s", ErrUnsupportedRouting, rt)
	}
	var loads LinkLoads
	var crossRate float64
	switch pat {
	case PatternUniform:
		if rt == RoutingMinimal {
			loads = m.MinimalUniform()
		} else {
			loads = m.ValiantUniform()
		}
		crossRate = m.uniformCrossRate()
	case PatternWorstCase:
		if wc == nil {
			return LinkLoads{}, 0, errors.New("fluid: worst-case pattern requires a permutation")
		}
		var err error
		if rt == RoutingMinimal {
			loads, err = m.MinimalPermutation(*wc)
		} else {
			loads, err = m.ValiantPermutation(*wc)
		}
		if err != nil {
			return LinkLoads{}, 0, err
		}
		crossRate = m.permCrossRate(wc.Perm)
	default:
		return LinkLoads{}, 0, fmt.Errorf("fluid: unknown pattern %d", int(pat))
	}
	// Flow conservation: total link load equals the rate-weighted path
	// length, so the mean hop count is their ratio. For Valiant this
	// naturally counts both legs of the indirect path.
	hops := 0.0
	if crossRate > 0 {
		hops = loads.Sum() / crossRate
	}
	return loads, hops, nil
}

// uniformCrossRate is the aggregate injection rate of uniform traffic
// that crosses routers (same-router pairs use no links).
func (m *Model) uniformCrossRate() float64 {
	n := float64(m.tp.Nodes())
	var same float64
	for _, r := range m.tp.EndpointRouters() {
		p := float64(len(m.tp.RouterNodes(r)))
		same += p * p
	}
	return (n*n - same) / (n - 1)
}

// permCrossRate counts the flows of a permutation that cross routers.
func (m *Model) permCrossRate(perm []int) float64 {
	var cross float64
	for src, dst := range perm {
		if m.tp.NodeRouter(src) != m.tp.NodeRouter(dst) {
			cross++
		}
	}
	return cross
}

// EstimateAt converts precomputed link loads into the full estimate
// for one offered load. cfg supplies the switch parameters the latency
// model needs (packet serialization, link/switch latency).
func (m *Model) EstimateAt(loads LinkLoads, avgHops, load float64, cfg sim.Config) Estimate {
	sat := loads.Saturation()
	thr := load
	if thr > sat {
		thr = sat
	}
	lat := NewLatency(m, cfg).AvgLatency(loads, avgHops, load)
	if math.IsInf(lat, 1) {
		lat = -1
	}
	return Estimate{
		Load:        load,
		Saturation:  sat,
		MaxLinkLoad: loads.MaxLoad(),
		AvgHops:     avgHops,
		Throughput:  thr,
		AvgLatency:  lat,
	}
}

// Evaluate answers one screening point in a single call: link loads,
// saturation, throughput and latency for (pattern, routing) at the
// offered load. Callers sweeping a load ladder should use Loads +
// EstimateAt to amortize the load computation.
func (m *Model) Evaluate(pat Pattern, rt Routing, wc *traffic.Permutation, load float64, cfg sim.Config) (Estimate, error) {
	loads, hops, err := m.Loads(pat, rt, wc)
	if err != nil {
		return Estimate{}, err
	}
	return m.EstimateAt(loads, hops, load, cfg), nil
}
