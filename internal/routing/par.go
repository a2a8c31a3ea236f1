package routing

import (
	"fmt"
	"math/rand"

	"diam2/internal/sim"
	"diam2/internal/topo"
)

// PAR is progressive adaptive routing, an extension beyond the paper:
// the UGAL decision is re-evaluated once more at the packet's first
// network hop. A packet sent minimally whose next minimal port turns
// out congested may divert onto an indirect path from there (at most
// one diversion per packet). This recovers some of the decisions
// UGAL-L gets wrong by only seeing the source router's buffers — at
// the cost of one extra VC (paths stretch to 1 + 2*D hops, so the
// hop-indexed scheme needs 1 + 2*D VCs instead of 2*D).
type PAR struct {
	*base
	cfg     UGALConfig
	portBuf int
	// maxLeg is the worst-case distance from any router (a diversion
	// may happen at a non-endpoint router, e.g. an MLFM global
	// router) to an eligible intermediate; it exceeds the
	// endpoint-to-endpoint diameter on indirect topologies.
	maxLeg int
}

// NewPAR builds progressive adaptive routing.
func NewPAR(t topo.Topology, cfg UGALConfig, simCfg sim.Config) (*PAR, error) {
	if err := cfg.check("PAR"); err != nil {
		return nil, err
	}
	p := &PAR{
		base:    newBase(t, VCByHop, true), // diversion needs hop VCs
		cfg:     cfg,
		portBuf: simCfg.OutputBufFlits * simCfg.NumVCs,
	}
	for r := 0; r < t.Graph().N(); r++ {
		for _, e := range p.eligible {
			if d := p.dist.at(r, e); d > p.maxLeg {
				p.maxLeg = d
			}
		}
	}
	return p, nil
}

// Name implements sim.RoutingAlgorithm.
func (p *PAR) Name() string { return fmt.Sprintf("PAR(nI=%d)", p.cfg.NI) }

// NumVCs implements sim.RoutingAlgorithm: hop-indexed VCs over paths
// of at most 1 (hop before diversion) + maxLeg (diversion point to
// intermediate) + maxMin (intermediate to destination) hops.
func (p *PAR) NumVCs() int { return 1 + p.maxLeg + p.maxMin }

// decide runs the UGAL comparison at router r for a packet heading to
// its destination; it returns the chosen intermediate or -1 for
// minimal.
func (p *PAR) decide(pkt *sim.Packet, r *sim.Router, rng *rand.Rand) int {
	dst := int(pkt.DstRouter)
	qM, _ := p.firstHopOccupancy(r, dst, false)
	if p.cfg.Threshold > 0 && float64(qM) < p.cfg.Threshold*float64(p.portBuf) {
		return -1
	}
	// A packet injected at its destination's router has lM = 0; PAR
	// keeps its length ratio finite.
	lM := p.dist.at(r.ID, dst)
	if lM == 0 {
		lM = 1
	}
	best := float64(qM)
	bestRi := -1
	for j := 0; j < p.cfg.NI; j++ {
		ri := p.pickIntermediate(pkt, rng)
		if ri == r.ID {
			continue
		}
		qI, _ := p.firstHopOccupancy(r, ri, false)
		if cost := p.cfg.penalty(&p.dist, r.ID, ri, dst, lM) * float64(qI); cost < best {
			best = cost
			bestRi = ri
		}
	}
	return bestRi
}

// Inject implements sim.RoutingAlgorithm.
func (p *PAR) Inject(pkt *sim.Packet, r *sim.Router, rng *rand.Rand) int {
	pkt.Minimal = true
	pkt.PhaseTwo = false
	pkt.Intermediate = -1
	if ri := p.decide(pkt, r, rng); ri >= 0 {
		pkt.Minimal = false
		pkt.Intermediate = int32(ri)
	}
	return 0
}

// NextHop implements sim.RoutingAlgorithm: minimal packets get one
// more adaptive decision at their first network hop.
func (p *PAR) NextHop(pkt *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	if pkt.Minimal && pkt.Hops == 1 && r.ID != int(pkt.DstRouter) {
		if ri := p.decide(pkt, r, rng); ri >= 0 {
			pkt.Minimal = false
			pkt.PhaseTwo = false
			pkt.Intermediate = int32(ri)
		}
	}
	return p.nextHop(pkt, r, rng)
}
