package routing

import (
	"fmt"
	"math/rand"

	"diam2/internal/sim"
	"diam2/internal/topo"
)

// UGALConfig parameterizes the UGAL-L adaptive algorithms of
// Section 3.3.
type UGALConfig struct {
	// NI is the number of randomly selected indirect candidates
	// evaluated per packet.
	NI int
	// C is the constant indirect-path penalty used for the MLFM and
	// OFT (cost = C * q_I).
	C float64
	// CSF, when SFCost is set, scales the Slim Fly cost
	// c = (L_I / L_M) * CSF (cost = c * q_I), following the original
	// UGAL formulation used by Besta and Hoefler.
	CSF float64
	// SFCost selects the Slim Fly length-ratio cost model.
	SFCost bool
	// Threshold, if positive, routes packets minimally whenever the
	// minimal first-hop occupancy is below Threshold (a fraction of
	// the total per-port output buffering); the *-ATh variants use
	// T = 0.10.
	Threshold float64
	// OutputBufferSignalOnly restricts the congestion signal to the
	// output-buffer occupancy, excluding the virtual-output-queue
	// load. In an input-output-buffered switch this signal is nearly
	// blind (the output buffer of a hot port stays near-empty);
	// exposed for the ablation benchmark that demonstrates it.
	OutputBufferSignalOnly bool
}

// UGAL is the local UGAL adaptive router: at injection it compares
// the minimal path against NI random indirect paths using first-hop
// output-buffer occupancies, then commits the packet to the winner.
type UGAL struct {
	*base
	cfg     UGALConfig
	portBuf int // total output buffering per port, flits (threshold base)
	variant string
}

// NewUGAL builds a UGAL-L adaptive algorithm for a topology. The
// variant name follows the paper: SF-A/SF-ATh when cfg.SFCost is set,
// MLFM-A/OFT-A/... otherwise (the topology name is used).
func NewUGAL(t topo.Topology, cfg UGALConfig, simCfg sim.Config) (*UGAL, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	u := &UGAL{
		base:    newBase(t, PolicyFor(t), true),
		cfg:     cfg,
		portBuf: simCfg.OutputBufFlits * simCfg.NumVCs,
	}
	suffix := "A"
	if cfg.Threshold > 0 {
		suffix = "ATh"
	}
	u.variant = fmt.Sprintf("UGAL-%s(nI=%d)", suffix, cfg.NI)
	return u, nil
}

// Name implements sim.RoutingAlgorithm.
func (u *UGAL) Name() string { return u.variant }

// NumVCs implements sim.RoutingAlgorithm.
func (u *UGAL) NumVCs() int { return u.numVCs() }

// check validates a UGAL-L configuration.
func (c *UGALConfig) check() error {
	if c.NI < 1 {
		return fmt.Errorf("routing: UGAL requires NI >= 1, got %d", c.NI)
	}
	if c.SFCost && c.CSF <= 0 {
		return fmt.Errorf("routing: SF cost model requires CSF > 0")
	}
	if !c.SFCost && c.C <= 0 {
		return fmt.Errorf("routing: constant cost model requires C > 0")
	}
	return nil
}

// Cost points at the configuration's cost constant, the one a CLI
// override or a cost sweep sets: CSF under SFCost, else C.
func (c *UGALConfig) Cost() *float64 {
	if c.SFCost {
		return &c.CSF
	}
	return &c.C
}

// penalty is the factor an indirect candidate's congestion is scaled
// by (Section 3.3): the constant C, or under SFCost the Slim Fly
// length ratio (L_I / L_M) * CSF of the path here -> ri -> dst against
// the minimal length lM.
func (c *UGALConfig) penalty(dist *distTable, here, ri, dst, lM int) float64 {
	if !c.SFCost {
		return c.C
	}
	lI := dist.at(here, ri) + dist.at(ri, dst)
	return float64(lI) / float64(lM) * c.CSF
}

// Inject implements sim.RoutingAlgorithm: the adaptive decision.
func (u *UGAL) Inject(p *sim.Packet, r *sim.Router, rng *rand.Rand) int {
	p.Minimal = true
	p.PhaseTwo = false
	p.Intermediate = -1

	dst := int(p.DstRouter)
	qM, _ := u.firstHopOccupancy(r, dst, u.cfg.OutputBufferSignalOnly)
	// Threshold variant: an uncongested minimal port short-circuits
	// the adaptive comparison.
	if u.cfg.Threshold > 0 && float64(qM) < u.cfg.Threshold*float64(u.portBuf) {
		return 0
	}

	lM := u.dist.at(r.ID, dst)
	bestCost := float64(qM)
	bestRi := -1
	for j := 0; j < u.cfg.NI; j++ {
		ri := u.pickIntermediate(p, rng)
		qI, _ := u.firstHopOccupancy(r, ri, u.cfg.OutputBufferSignalOnly)
		if cost := u.cfg.penalty(&u.dist, r.ID, ri, dst, lM) * float64(qI); cost < bestCost {
			bestCost = cost
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
func (u *UGAL) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	return u.nextHop(p, r, rng)
}
