package routing

import (
	"math/rand"

	"diam2/internal/sim"
	"diam2/internal/topo"
)

// UGALGlobal is the global variant of UGAL the paper mentions and
// dismisses as impractical ("requires knowledge of the buffers' state
// for the whole topology at the point of injection"). It is provided
// as an idealized upper bound for ablations: path costs sum the
// output-port occupancies of every router along the candidate path,
// not just the first hop.
type UGALGlobal struct {
	*base
	cfg UGALConfig
}

// NewUGALGlobal builds the global-knowledge UGAL ablation.
func NewUGALGlobal(t topo.Topology, cfg UGALConfig) (*UGALGlobal, error) {
	if cfg.NI < 1 {
		cfg.NI = 1
	}
	if cfg.C <= 0 && !cfg.SFCost {
		cfg.C = 1
	}
	if cfg.SFCost && cfg.CSF <= 0 {
		cfg.CSF = 1
	}
	return &UGALGlobal{base: newBase(t, PolicyFor(t), true), cfg: cfg}, nil
}

// Name implements sim.RoutingAlgorithm.
func (u *UGALGlobal) Name() string { return "UGAL-G" }

// NumVCs implements sim.RoutingAlgorithm.
func (u *UGALGlobal) NumVCs() int { return u.numVCs() }

// ReadsRemoteState marks the algorithm as unsafe for sharded engines
// (sim.RemoteStateRouting): pathCost walks occupancy counters of
// routers other shards own.
func (u *UGALGlobal) ReadsRemoteState() {}

// pathCost walks a minimal path from cur to tgt, greedily choosing
// the least-occupied next hop at every router (with global state
// access), and returns the accumulated occupancy.
func (u *UGALGlobal) pathCost(net *sim.Network, cur, tgt int) float64 {
	cost := 0.0
	for cur != tgt {
		r := net.Routers[cur]
		occ, port := u.firstHopOccupancy(r, tgt, false)
		cost += float64(occ)
		cur = r.NeighborAt(port)
	}
	return cost
}

// Inject implements sim.RoutingAlgorithm: the global adaptive choice.
func (u *UGALGlobal) Inject(p *sim.Packet, r *sim.Router, rng *rand.Rand) int {
	p.Minimal = true
	p.PhaseTwo = false
	p.Intermediate = -1
	net := r.Network()
	dst := int(p.DstRouter)
	lM := u.dist.at(r.ID, dst)
	best := u.pathCost(net, r.ID, dst)
	bestRi := -1
	for j := 0; j < u.cfg.NI; j++ {
		ri := u.pickIntermediate(p, rng)
		qI := u.pathCost(net, r.ID, ri) + u.pathCost(net, ri, dst)
		if cost := u.cfg.penalty(&u.dist, r.ID, ri, dst, lM) * qI; cost < best {
			best = cost
			bestRi = ri
		}
	}
	if bestRi >= 0 {
		p.Minimal = false
		p.Intermediate = int32(bestRi)
	}
	return 0
}

// NextHop implements sim.RoutingAlgorithm.
func (u *UGALGlobal) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	return u.nextHop(p, r, rng)
}
