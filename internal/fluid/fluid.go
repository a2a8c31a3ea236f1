// Package fluid is an analytic (fluid-flow) throughput model: it
// computes per-link loads for a router-pair demand under minimal or
// Valiant routing by splitting each flow evenly over its minimal
// paths, and derives the theoretical saturation load as the inverse
// of the most loaded link. It cross-validates the discrete-event
// simulator — the Section 4.2 closed forms (1/(2p), 1/h, 1/k) drop
// out of it directly — and gives instant estimates where simulation
// would take minutes.
package fluid

import (
	"fmt"
	"sort"

	"diam2/internal/graph"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Model holds the per-topology state for load computations.
type Model struct {
	tp   topo.Topology
	g    *graph.Graph
	dist [][]int
	// cnt[u][v] = number of minimal u->v paths.
	cnt [][]float64
	// link[u] indexes router u's first directed link: (u, v) with v
	// the i-th entry of g.Neighbors(u) is link link[u]+i, and link[n]
	// is the link count. Neighbour lists are sorted, so link indices
	// run in (u, v) lexicographic order.
	link []int
	// connErr records (once, at New) whether any endpoint-router pair
	// is unreachable; see Check in estimate.go.
	connErr error
}

// New builds the model (O(R^2) memory; fine at topology scale).
func New(tp topo.Topology) *Model {
	g := tp.Graph()
	m := &Model{tp: tp, g: g, dist: g.DistanceMatrix()}
	n := g.N()
	m.cnt = make([][]float64, n)
	m.link = make([]int, n+1)
	for u := 0; u < n; u++ {
		m.link[u+1] = m.link[u] + g.Degree(u)
		m.cnt[u] = make([]float64, n)
		// BFS DAG path counting from u, processing vertices in
		// increasing distance from u (counting sort by distance).
		m.cnt[u][u] = 1
		maxD := 0
		for _, d := range m.dist[u] {
			if d > maxD {
				maxD = d
			}
		}
		buckets := make([][]int, maxD+1)
		for v, d := range m.dist[u] {
			if d >= 0 {
				buckets[d] = append(buckets[d], v)
			}
		}
		for d := 1; d <= maxD; d++ {
			for _, v := range buckets[d] {
				var c float64
				for _, w := range g.Neighbors(v) {
					if m.dist[u][w] == d-1 {
						c += m.cnt[u][w]
					}
				}
				m.cnt[u][v] = c
			}
		}
	}
	eps := tp.EndpointRouters()
	for _, u := range eps {
		for _, v := range eps {
			if m.dist[u][v] < 0 {
				m.connErr = fmt.Errorf("%w: no path between routers %d and %d", ErrDisconnected, u, v)
				return m
			}
		}
	}
	return m
}

// Demand is router-pair traffic: the rate each ordered pair of
// endpoint routers exchanges when every node injects one unit, with
// same-router traffic left out (it uses no links). Build one with
// Uniform or Permutation and turn it into link loads with Minimal or
// Valiant. Valiant recomputes a uniform demand's rates from the
// topology in its closed form instead of reading rate;
// TestValiantUniformAggregation checks the two agree.
type Demand struct {
	rate  []float64 // R x R, row-major: rate[rs*R+rd]
	cross float64   // total rate between distinct routers
	// uniform marks global uniform traffic, for which Valiant has a
	// closed form.
	uniform bool
}

// Uniform returns global uniform traffic: every node sends 1/(N-1) of
// its unit to every other node. A disconnected topology is an error
// wrapping ErrDisconnected, since the flows between unreachable
// routers would vanish from the loads.
func (m *Model) Uniform() (Demand, error) {
	if err := m.Check(); err != nil {
		return Demand{}, err
	}
	r := m.g.N()
	d := Demand{rate: make([]float64, r*r), uniform: true}
	n := float64(m.tp.Nodes())
	rate := 1.0 / (n - 1)
	var same float64
	eps := m.tp.EndpointRouters()
	for _, rs := range eps {
		ps := float64(len(m.tp.RouterNodes(rs)))
		same += ps * ps
		for _, rd := range eps {
			if rs == rd {
				continue
			}
			pd := float64(len(m.tp.RouterNodes(rd)))
			d.rate[rs*r+rd] = ps * pd * rate
		}
	}
	d.cross = (n*n - same) / (n - 1)
	return d, nil
}

// Permutation returns the demand of a node permutation: every node
// sends its unit to its image. A disconnected topology is an error, as
// for Uniform.
func (m *Model) Permutation(perm traffic.Permutation) (Demand, error) {
	if err := m.Check(); err != nil {
		return Demand{}, err
	}
	if len(perm.Perm) != m.tp.Nodes() {
		return Demand{}, fmt.Errorf("fluid: permutation covers %d of %d nodes", len(perm.Perm), m.tp.Nodes())
	}
	r := m.g.N()
	d := Demand{rate: make([]float64, r*r)}
	for src, dst := range perm.Perm {
		rs, rd := m.tp.NodeRouter(src), m.tp.NodeRouter(dst)
		if rs != rd {
			d.rate[rs*r+rd]++
			d.cross++
		}
	}
	return d, nil
}

// LinkLoads holds the relative load of every directed router link
// (flow units crossing the link when every node injects one unit),
// indexed by link in (u, v) lexicographic order, with the maximum, the
// total and the demand's mean hop count computed once. The zero value
// carries no load.
type LinkLoads struct {
	m    *Model
	load []float64
	max  float64
	sum  float64
	hops float64
}

// newLoad returns a zeroed per-link accumulator.
func (m *Model) newLoad() []float64 { return make([]float64, m.link[len(m.link)-1]) }

// linkLoads wraps an accumulated per-link load vector. The total adds
// the links in index order, so the float sum is the same on every run;
// links without load add an exact +0. By flow conservation the total
// is the rate-weighted path length of d, so the mean hop count is
// their ratio; for Valiant it counts both legs.
func (m *Model) linkLoads(load []float64, d Demand) LinkLoads {
	l := LinkLoads{m: m, load: load}
	for _, v := range load {
		l.sum += v
		if v > l.max {
			l.max = v
		}
	}
	if d.cross > 0 {
		l.hops = l.sum / d.cross
	}
	return l
}

// addFlow spreads `rate` units from router src to router dst evenly
// over all minimal paths, accumulating directed link loads: the share
// of edge (u,v) on shortest src->dst paths is
// cnt(src,u)*cnt(v,dst)/cnt(src,dst).
func (m *Model) addFlow(load []float64, src, dst int, rate float64) {
	if src == dst || rate == 0 {
		return
	}
	total := m.cnt[src][dst]
	if total == 0 {
		return
	}
	d := m.dist[src][dst]
	for u := 0; u < m.g.N(); u++ {
		du := m.dist[src][u]
		if du < 0 || du >= d || m.cnt[src][u] == 0 {
			continue
		}
		for i, v := range m.g.Neighbors(u) {
			if m.dist[src][v] != du+1 || m.dist[v][dst] != d-du-1 {
				continue
			}
			share := m.cnt[src][u] * m.cnt[v][dst] / total
			if share > 0 {
				load[m.link[u]+i] += rate * share
			}
		}
	}
}

// Minimal computes the link loads of d under minimal routing. Pairs
// spread in (rs, rd) index order, so each link's float accumulation
// sums in a fixed order and the loads are the same on every run.
func (m *Model) Minimal(d Demand) LinkLoads {
	load := m.newLoad()
	r := m.g.N()
	for pair, rate := range d.rate {
		m.addFlow(load, pair/r, pair%r, rate)
	}
	return m.linkLoads(load, d)
}

// Valiant computes the link loads of d under indirect random routing:
// each pair's rate splits uniformly over the E-2 endpoint routers other
// than its own two, routing minimally on both legs. With fewer than
// three endpoint routers there is nothing to bounce through and INR
// degenerates to MIN.
//
// Uniform demand takes a closed form instead of the O(E^3) triple
// loop: every flow excludes its own source and destination as
// intermediates, so the leg rate of the ordered pair (a,b) sums to
// rate * (p(a)+p(b)) * (N - p(a) - p(b)) / (E-2), which leaves the
// same O(E^2) spreading pass Minimal does.
func (m *Model) Valiant(d Demand) LinkLoads {
	eps := m.tp.EndpointRouters()
	if len(eps) < 3 {
		return m.Minimal(d)
	}
	load := m.newLoad()
	if d.uniform {
		n := float64(m.tp.Nodes())
		rate := 1.0 / (n - 1)
		denom := float64(len(eps) - 2)
		for _, a := range eps {
			pa := float64(len(m.tp.RouterNodes(a)))
			for _, b := range eps {
				if a == b {
					continue
				}
				pb := float64(len(m.tp.RouterNodes(b)))
				m.addFlow(load, a, b, rate*(pa+pb)*(n-pa-pb)/denom)
			}
		}
		return m.linkLoads(load, d)
	}
	r := m.g.N()
	for pair, rate := range d.rate {
		if rate == 0 {
			continue
		}
		rs, rd := pair/r, pair%r
		w := rate / float64(len(eps)-2)
		for _, ri := range eps {
			if ri == rs || ri == rd {
				continue
			}
			m.addFlow(load, rs, ri, w)
			m.addFlow(load, ri, rd, w)
		}
	}
	return m.linkLoads(load, d)
}

// At returns the load of the directed link (u, v); 0 when the routers
// are not adjacent.
func (l LinkLoads) At(u, v int) float64 {
	if l.m == nil || !l.m.g.HasEdge(u, v) {
		return 0
	}
	return l.load[l.m.link[u]+sort.SearchInts(l.m.g.Neighbors(u), v)]
}

// Sum returns the total load over all directed links. By flow
// conservation this equals the rate-weighted path length of the
// traffic.
func (l LinkLoads) Sum() float64 { return l.sum }

// MaxLoad returns the highest directed-link load.
func (l LinkLoads) MaxLoad() float64 { return l.max }

// Saturation converts loads into the theoretical saturation fraction:
// the injection rate at which the hottest link reaches capacity
// (1 / max relative load; 1.0 when no link ever exceeds the per-node
// injection rate).
func (l LinkLoads) Saturation() float64 {
	if l.max <= 1 {
		return 1
	}
	return 1 / l.max
}
