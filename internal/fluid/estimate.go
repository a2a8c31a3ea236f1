package fluid

import (
	"errors"
	"math"

	"diam2/internal/sim"
)

// This file is the screening-tier surface of the fluid model: link
// loads computed once per (demand, routing) answer any offered load in
// microseconds with the same axes the flit-level simulator sweeps, so
// the harness can screen thousands of design-space points and reserve
// simulation for the neighborhood where analytic fidelity runs out:
// loads near saturation. Throughput is min(load, saturation) with one
// saturation per (demand, routing), so two screened curves never cross
// (harness.TestScreenThroughputNeverCrosses). See harness.ScreenSweep.

// ErrDisconnected: some endpoint-router pair has no path, so flows
// between them vanish from the load accounting and every derived
// number (saturation, latency) would be silently optimistic.
var ErrDisconnected = errors.New("fluid: topology graph is disconnected between endpoint routers")

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
// runs once at New and is cached; Uniform and Permutation return its
// error.
func (m *Model) Check() error { return m.connErr }

// EstimateAt converts link loads into the full estimate for one
// offered load. The loads are independent of offered load, so a
// screening sweep computes them once per combination and evaluates its
// whole load ladder here. cfg supplies the switch parameters the
// latency model needs (packet serialization, link/switch latency).
func EstimateAt(loads LinkLoads, load float64, cfg sim.Config) Estimate {
	sat := loads.Saturation()
	thr := load
	if thr > sat {
		thr = sat
	}
	lat := avgLatency(loads, load, cfg)
	if math.IsInf(lat, 1) {
		lat = -1
	}
	return Estimate{
		Load:        load,
		Saturation:  sat,
		MaxLinkLoad: loads.MaxLoad(),
		AvgHops:     loads.hops,
		Throughput:  thr,
		AvgLatency:  lat,
	}
}

// avgLatency estimates the mean packet latency (cycles) at offered
// load x (fraction of injection bandwidth) by layering M/D/1 queueing
// delays on the link loads: each link behaves as a deterministic
// server (service time = packet serialization), so its mean waiting
// time at utilization rho is rho/(2*(1-rho)) service times. The
// estimate reproduces the hockey-stick shape of the paper's
// latency-versus-load curves; it is +Inf at or beyond saturation.
func avgLatency(loads LinkLoads, x float64, cfg sim.Config) float64 {
	// Zero-load latency of an h-hop route: terminal link, h network
	// links, h+1 switch traversals, plus serialization.
	packet := float64(cfg.PacketFlits())
	hops := int(math.Round(loads.hops))
	base := float64((hops+1)*cfg.LinkLatency+(hops+1)*cfg.SwitchLatency) + packet
	if x <= 0 {
		return base
	}
	if x*loads.max >= 1 {
		return math.Inf(1)
	}
	// Mean queueing delay per traversed link, weighted by link usage:
	// average over links of rho/(2(1-rho)) with rho = x * relative
	// load, weighted by the link's share of total flow (links carrying
	// more flow are traversed by more packets). One pass in link index
	// order, so the sum is bit-identical across runs; links without
	// load add an exact +0.
	var total float64
	for _, rel := range loads.load {
		rho := x * rel
		total += rel * rho / (2 * (1 - rho))
	}
	queue := 0.0
	if loads.sum > 0 {
		queue = total / loads.sum * packet
	}
	return base + loads.hops*queue
}
