// Package routing implements the routing algorithms of Section 3:
// oblivious minimal routing (MIN), oblivious indirect random routing
// (INR, Valiant with restricted intermediates), and the UGAL-L
// adaptive family (generic and threshold variants) with the paper's
// per-topology cost models. Deadlock freedom follows Section 3.4:
// hop-indexed VCs for the Slim Fly (2 minimal / 4 indirect) and
// phase-indexed VCs for the SSPTs (1 minimal / 2 indirect).
package routing

import (
	"fmt"
	"math"
	"math/rand"

	"diam2/internal/graph"
	"diam2/internal/sim"
	"diam2/internal/topo"
)

// VCPolicy selects the deadlock-avoidance VC assignment.
type VCPolicy int

const (
	// VCByHop assigns VC = number of hops already taken. Safe on any
	// topology because the VC index strictly increases along a route;
	// this is the Slim Fly scheme (2 VCs minimal, 4 VCs indirect).
	VCByHop VCPolicy = iota
	// VCByPhase assigns VC 0 while heading to the intermediate and
	// VC 1 afterwards (minimal traffic always uses VC 0). Valid for
	// the SSPTs, whose towards/away link classes make each virtual
	// network's channel dependency graph acyclic (Section 3.4).
	VCByPhase
)

// PolicyFor returns the paper's VC policy for a topology: phase-based
// for the SSPT members (MLFM, OFT) and the two-level Fat-Tree (also
// bipartite up/down), hop-based otherwise.
func PolicyFor(t topo.Topology) VCPolicy {
	switch t.(type) {
	case *topo.MLFM, *topo.OFT, *topo.FatTree2:
		return VCByPhase
	default:
		return VCByHop
	}
}

// distTable is the all-pairs hop-distance matrix at one byte per entry:
// every routing decision reads a handful of entries of one row, so a
// row spanning few cache lines — and the whole table fitting a
// mid-level cache at paper scale — is what the decision costs.
type distTable struct {
	n int
	d []uint8 // [u*n + v]; farAway for unreachable pairs
}

// farAway is a row's entry for an unreachable router. Real distances
// stay below it (newDistTable panics otherwise: no topology this
// simulator targets comes near a 255-hop diameter).
const farAway = math.MaxUint8

func newDistTable(g *graph.Graph) distTable {
	n := g.N()
	t := distTable{n: n, d: make([]uint8, n*n)}
	bfs, queue := make([]int, n), make([]int, 0, n)
	for u := 0; u < n; u++ {
		g.BFSInto(u, bfs, queue)
		for v, d := range bfs {
			switch {
			case d == graph.Unreachable:
				d = farAway
			case d >= farAway:
				panic(fmt.Sprintf("routing: routers %d and %d are %d hops apart, beyond the distance table's range", u, v, d))
			}
			t.d[u*n+v] = uint8(d)
		}
	}
	return t
}

// row returns the distances from (equally, to) router u.
func (t distTable) row(u int) []uint8 { return t.d[u*t.n : (u+1)*t.n] }

// at returns the distance between two routers, graph.Unreachable if
// there is no path.
func (t distTable) at(u, v int) int {
	if d := t.d[u*t.n+v]; d != farAway {
		return int(d)
	}
	return graph.Unreachable
}

// base holds the topology-derived state shared by all algorithms.
type base struct {
	topo     topo.Topology
	dist     distTable
	eligible []int // Valiant intermediates: endpoint-attached routers
	policy   VCPolicy
	indirect bool // whether indirect routes are ever taken
	maxMin   int  // maximum minimal route length between endpoint routers

	// live is the router graph the tables were last rebuilt from; nil
	// until the first Rebuild (fault-free operation). When set, route
	// decisions skip ports whose link it no longer contains.
	live *graph.Graph
}

func newBase(t topo.Topology, policy VCPolicy, indirect bool) *base {
	b := &base{
		topo:     t,
		dist:     newDistTable(t.Graph()),
		eligible: t.EndpointRouters(),
		policy:   policy,
		indirect: indirect,
	}
	for _, u := range b.eligible {
		for _, v := range b.eligible {
			if d := b.dist.at(u, v); d > b.maxMin {
				b.maxMin = d
			}
		}
	}
	return b
}

// numVCs returns the VC count required by the policy and route kinds.
func (b *base) numVCs() int {
	switch b.policy {
	case VCByPhase:
		if b.indirect {
			return 2
		}
		return 1
	default: // VCByHop
		if b.indirect {
			return 2 * b.maxMin
		}
		return b.maxMin
	}
}

// Rebuild implements sim.RerouteAware: it recomputes the distance
// tables from the current (possibly degraded) router graph, so
// subsequent decisions route around downed links. The VC budget was
// sized from the fault-free topology and does not change mid-run;
// hop-indexed VCs clamp at the top channel when rerouted paths run
// long (see vcFor).
func (b *base) Rebuild(g *graph.Graph) {
	b.dist = newDistTable(g)
	b.live = g
}

// usable reports whether a network port's link exists in the graph the
// tables were built from (always true before the first Rebuild).
func (b *base) usable(r *sim.Router, port int) bool {
	return b.live == nil || b.live.HasEdge(r.ID, r.NeighborAt(port))
}

// vcFor returns the VC for the packet's next link.
func (b *base) vcFor(p *sim.Packet) int {
	if b.policy == VCByPhase {
		if !p.Minimal && p.PhaseTwo {
			return 1
		}
		return 0
	}
	// Dynamic faults can stretch a route beyond the hop budget the VC
	// count was sized from; the overflow hops share the top channel.
	if max := b.numVCs() - 1; int(p.Hops) > max {
		return max
	}
	return int(p.Hops)
}

// target returns the router the packet currently steers toward and
// flips the packet into phase two at the intermediate.
func (b *base) target(p *sim.Packet, here int) int {
	if p.Minimal || p.PhaseTwo {
		return int(p.DstRouter)
	}
	if here == int(p.Intermediate) {
		p.PhaseTwo = true
		return int(p.DstRouter)
	}
	return int(p.Intermediate)
}

// nextHop picks the output port along a minimal path toward the
// packet's current target. Among equally minimal next hops it prefers
// the least-occupied output port, breaking ties uniformly at random
// (footnote 1 of the paper).
func (b *base) nextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	tgt := b.target(p, r.ID)
	// The graph is undirected, so the distance matrix is symmetric;
	// reading the target's row keeps every per-port lookup inside one
	// contiguous row of bytes.
	row := b.dist.row(tgt)
	want := row[r.ID] - 1
	bestPort := -1
	bestOcc := 0
	ties := 0
	np := r.NetPorts()
	for port := 0; port < np; port++ {
		nb := r.NeighborAt(port)
		if row[nb] != want || !b.usable(r, port) {
			continue
		}
		occ := r.OutOccupancy(port)
		switch {
		case bestPort < 0 || occ < bestOcc:
			bestPort, bestOcc, ties = port, occ, 1
		case occ == bestOcc:
			ties++
			if rng.Intn(ties) == 0 {
				bestPort = port
			}
		}
	}
	if bestPort < 0 {
		panic(fmt.Sprintf("routing: no minimal next hop from router %d to %d", r.ID, tgt))
	}
	return bestPort, b.vcFor(p)
}

// pickIntermediate samples a uniformly random eligible intermediate
// router distinct from the source and destination routers.
func (b *base) pickIntermediate(p *sim.Packet, rng *rand.Rand) int {
	for {
		ri := b.eligible[rng.Intn(len(b.eligible))]
		if ri != int(p.SrcRouter) && ri != int(p.DstRouter) {
			return ri
		}
	}
}

// firstHopOccupancy returns the occupancy of r's least-occupied output
// port on a minimal path toward tgt (the UGAL-L congestion signal),
// together with that port; the first such port wins a tie. bufferOnly
// reads the output-buffer part of the signal alone (the ablation of
// UGALConfig.OutputBufferSignalOnly).
func (b *base) firstHopOccupancy(r *sim.Router, tgt int, bufferOnly bool) (occ, port int) {
	row := b.dist.row(tgt) // symmetric matrix, see nextHop
	want := row[r.ID] - 1
	occ, port = -1, -1
	np := r.NetPorts()
	for pt := 0; pt < np; pt++ {
		if row[r.NeighborAt(pt)] != want || !b.usable(r, pt) {
			continue
		}
		o := r.OutOccupancy(pt)
		if bufferOnly {
			o = r.OutBufferOccupancy(pt)
		}
		if port < 0 || o < occ {
			occ, port = o, pt
		}
	}
	return occ, port
}

// Minimal is oblivious minimal routing (Section 3.1).
type Minimal struct{ *base }

// NewMinimal builds MIN routing for a topology.
func NewMinimal(t topo.Topology) *Minimal {
	return &Minimal{newBase(t, PolicyFor(t), false)}
}

// Name implements sim.RoutingAlgorithm.
func (m *Minimal) Name() string { return "MIN" }

// NumVCs implements sim.RoutingAlgorithm.
func (m *Minimal) NumVCs() int { return m.numVCs() }

// Inject implements sim.RoutingAlgorithm.
func (m *Minimal) Inject(p *sim.Packet, _ *sim.Router, _ *rand.Rand) int {
	p.Minimal = true
	return 0
}

// NextHop implements sim.RoutingAlgorithm.
func (m *Minimal) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	return m.nextHop(p, r, rng)
}

// Valiant is oblivious indirect random routing (INR, Section 3.2):
// every packet is first routed minimally to a random intermediate
// endpoint router, then minimally to its destination. Restricting
// intermediates to endpoint-attached routers keeps indirect paths at
// twice the minimal length (4 hops for the SSPTs).
type Valiant struct{ *base }

// NewValiant builds INR routing for a topology.
func NewValiant(t topo.Topology) *Valiant {
	return &Valiant{newBase(t, PolicyFor(t), true)}
}

// Name implements sim.RoutingAlgorithm.
func (v *Valiant) Name() string { return "INR" }

// NumVCs implements sim.RoutingAlgorithm.
func (v *Valiant) NumVCs() int { return v.numVCs() }

// Inject implements sim.RoutingAlgorithm.
func (v *Valiant) Inject(p *sim.Packet, _ *sim.Router, rng *rand.Rand) int {
	p.Minimal = false
	p.PhaseTwo = false
	p.Intermediate = int32(v.pickIntermediate(p, rng))
	return 0
}

// NextHop implements sim.RoutingAlgorithm.
func (v *Valiant) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	return v.nextHop(p, r, rng)
}
