package fluid

import (
	"math"

	"diam2/internal/sim"
)

// LatencyModel estimates average packet latency below saturation by
// layering M/D/1 queueing delays on the fluid link loads: each link
// behaves as a deterministic server (packet service time = packet
// serialization), so its mean waiting time at utilization rho is
// rho/(2*(1-rho)) service times. The estimate reproduces the
// hockey-stick shape of the paper's latency-versus-load curves
// analytically.
type LatencyModel struct {
	m   *Model
	cfg sim.Config
}

// NewLatency builds the latency model for a topology and switch
// configuration.
func NewLatency(m *Model, cfg sim.Config) *LatencyModel {
	return &LatencyModel{m: m, cfg: cfg}
}

// packetCycles is the serialization time of one packet.
func (l *LatencyModel) packetCycles() float64 { return float64(l.cfg.PacketFlits()) }

// baseCycles is the zero-load latency of an h-hop route: terminal
// link, h network links, h+1 switch traversals, plus serialization.
func (l *LatencyModel) baseCycles(hops int) float64 {
	return float64((hops+1)*l.cfg.LinkLatency+(hops+1)*l.cfg.SwitchLatency) + l.packetCycles()
}

// AvgLatency estimates the mean packet latency (cycles) for a
// permutation under minimal routing at offered load x (fraction of
// injection bandwidth). It returns +Inf at or beyond saturation.
func (l *LatencyModel) AvgLatency(loads LinkLoads, avgHops float64, x float64) float64 {
	if x <= 0 {
		return l.baseCycles(int(math.Round(avgHops)))
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
		queue = total / loads.sum * l.packetCycles()
	}
	return l.baseCycles(int(math.Round(avgHops))) + (avgHops)*queue
}

// AvgMinimalHops returns the flow-weighted mean hop count of a
// permutation under minimal routing.
func (m *Model) AvgMinimalHops(perm []int) float64 {
	var sum float64
	var n int
	for src, dst := range perm {
		rs, rd := m.tp.NodeRouter(src), m.tp.NodeRouter(dst)
		if rs == rd {
			continue
		}
		sum += float64(m.dist[rs][rd])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
