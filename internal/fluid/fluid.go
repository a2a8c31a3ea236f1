// Package fluid is an analytic (fluid-flow) throughput model: it
// computes per-link loads for a traffic pattern under minimal or
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

// LinkLoads holds the relative load of every directed router link
// (flow units crossing the link when every node injects one unit),
// indexed by link in (u, v) lexicographic order, with the maximum and
// the total computed once. The zero value carries no load.
type LinkLoads struct {
	m    *Model
	load []float64
	max  float64
	sum  float64
}

// newLoad returns a zeroed per-link accumulator.
func (m *Model) newLoad() []float64 { return make([]float64, m.link[len(m.link)-1]) }

// linkLoads wraps an accumulated per-link load vector. The total adds
// the links in index order, so the float sum is the same on every run;
// links without load add an exact +0.
func (m *Model) linkLoads(load []float64) LinkLoads {
	l := LinkLoads{m: m, load: load}
	for _, v := range load {
		l.sum += v
		if v > l.max {
			l.max = v
		}
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

// MinimalPermutation computes link loads for a node permutation under
// minimal routing (each node injects one unit).
func (m *Model) MinimalPermutation(perm traffic.Permutation) (LinkLoads, error) {
	if len(perm.Perm) != m.tp.Nodes() {
		return LinkLoads{}, fmt.Errorf("fluid: permutation covers %d of %d nodes", len(perm.Perm), m.tp.Nodes())
	}
	load := m.newLoad()
	for src, dst := range perm.Perm {
		m.addFlow(load, m.tp.NodeRouter(src), m.tp.NodeRouter(dst), 1)
	}
	return m.linkLoads(load), nil
}

// MinimalUniform computes link loads for global uniform traffic under
// minimal routing.
func (m *Model) MinimalUniform() LinkLoads {
	load := m.newLoad()
	n := m.tp.Nodes()
	rate := 1.0 / float64(n-1)
	// Aggregate node pairs to router pairs.
	eps := m.tp.EndpointRouters()
	for _, rs := range eps {
		ps := float64(len(m.tp.RouterNodes(rs)))
		for _, rd := range eps {
			if rs == rd {
				continue
			}
			pd := float64(len(m.tp.RouterNodes(rd)))
			m.addFlow(load, rs, rd, ps*pd*rate)
		}
	}
	return m.linkLoads(load)
}

// ValiantUniform computes link loads for global uniform traffic under
// indirect random routing. Rather than loop over every
// (source, destination, intermediate) router triple, it aggregates the
// two minimal legs per directed router pair first: with E endpoint
// routers and every flow excluding its own source and destination as
// intermediates, the leg rate of the ordered pair (a,b) sums to
// rate * (p(a)+p(b)) * (N - p(a) - p(b)) / (E-2), which reduces the
// triple loop to the same O(E^2) spreading pass MinimalUniform does.
func (m *Model) ValiantUniform() LinkLoads {
	eps := m.tp.EndpointRouters()
	if len(eps) < 3 {
		// No third router to bounce through: INR degenerates to MIN.
		return m.MinimalUniform()
	}
	load := m.newLoad()
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
			w := rate * (pa + pb) * (n - pa - pb) / denom
			m.addFlow(load, a, b, w)
		}
	}
	return m.linkLoads(load)
}

// ValiantPermutation computes link loads for a permutation under
// indirect random routing: each flow splits uniformly over the
// eligible intermediates, routing minimally on both legs.
func (m *Model) ValiantPermutation(perm traffic.Permutation) (LinkLoads, error) {
	if len(perm.Perm) != m.tp.Nodes() {
		return LinkLoads{}, fmt.Errorf("fluid: permutation covers %d of %d nodes", len(perm.Perm), m.tp.Nodes())
	}
	load := m.newLoad()
	eligible := m.tp.EndpointRouters()
	// Aggregate by router pair first (node-level loop would repeat
	// identical work p times), in a dense row-major count: spreading
	// in index order is (rs, rd) order, so each link's float
	// accumulation sums in a fixed order and the loads are the same on
	// every run.
	r := m.g.N()
	pairRate := make([]float64, r*r)
	for src, dst := range perm.Perm {
		rs, rd := m.tp.NodeRouter(src), m.tp.NodeRouter(dst)
		if rs != rd {
			pairRate[rs*r+rd]++
		}
	}
	for pair, rate := range pairRate {
		if rate == 0 {
			continue
		}
		rs, rd := pair/r, pair%r
		// Count usable intermediates (excluding src/dst routers).
		usable := 0
		for _, ri := range eligible {
			if ri != rs && ri != rd {
				usable++
			}
		}
		if usable == 0 {
			m.addFlow(load, rs, rd, rate)
			continue
		}
		w := rate / float64(usable)
		for _, ri := range eligible {
			if ri == rs || ri == rd {
				continue
			}
			m.addFlow(load, rs, ri, w)
			m.addFlow(load, ri, rd, w)
		}
	}
	return m.linkLoads(load), nil
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
// traffic, which is how the screening tier derives mean hop counts.
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
