package traffic

import (
	"fmt"
	"math/rand"

	"diam2/internal/topo"
)

// slimFlyWorstCase builds the Section 4.2 adversarial pattern for the
// Slim Fly (Fig. 5): routers communicate in pairs at distance 2 with
// pairwise overlapping routes. A greedy pass finds chains A-B-C-D
// where d(A,C) = d(B,D) = 2 and assigns A->C and B->D, so the link
// B->C carries the second hop of A's flows and the first hop of B's
// flows (2p flows per direction, saturating at 1/(2p)). Routers left
// over by the greedy pass are paired with any distance-2 partner.
func slimFlyWorstCase(t topo.Topology, rng *rand.Rand) (Permutation, error) {
	g := t.Graph()
	r := g.N()
	dist := g.DistanceMatrix()
	routerDst := make([]int, r)
	for i := range routerDst {
		routerDst[i] = -1
	}
	usedSrc := make([]bool, r)
	usedDst := make([]bool, r)

	// Prefer unique-common-neighbor pairs so that minimal routing is
	// forced through the overlapping link.
	order := rng.Perm(r)
	for _, a := range order {
		if usedSrc[a] {
			continue
		}
		if tryChain(g, dist, a, routerDst, usedSrc, usedDst) {
			continue
		}
	}
	// Fallback: pair remaining sources with any free distance-2 (or,
	// failing that, distance-1) destination.
	for a := 0; a < r; a++ {
		if usedSrc[a] {
			continue
		}
		best := -1
		for c := 0; c < r; c++ {
			if usedDst[c] || c == a {
				continue
			}
			if dist[a][c] == 2 {
				best = c
				break
			}
			if best < 0 && dist[a][c] >= 1 {
				best = c
			}
		}
		if best < 0 {
			// The only free destination is a itself. Trade with an
			// already-paired source b: a takes b's destination and b
			// sends to a, preferring a b that keeps both at distance 2.
			b := -1
			for s := 0; s < r; s++ {
				if s == a || !usedSrc[s] {
					continue
				}
				if b < 0 {
					b = s
				}
				if dist[a][routerDst[s]] == 2 && dist[s][a] == 2 {
					b = s
					break
				}
			}
			if b < 0 {
				return Permutation{}, fmt.Errorf("traffic: cannot complete worst-case pairing at router %d", a)
			}
			best, routerDst[b] = routerDst[b], a
			usedDst[a] = true
		}
		routerDst[a] = best
		usedSrc[a] = true
		usedDst[best] = true
	}

	// Expand to nodes: node m of router a -> node m of router dst[a].
	perm := make([]int, t.Nodes())
	for a := 0; a < r; a++ {
		src := t.RouterNodes(a)
		dst := t.RouterNodes(routerDst[a])
		if len(src) != len(dst) {
			return Permutation{}, fmt.Errorf("traffic: routers %d and %d hold different node counts", a, routerDst[a])
		}
		for m, s := range src {
			perm[s] = dst[m]
		}
	}
	p := Permutation{Label: "WC-SF", Perm: perm}
	return p, p.Validate()
}

// tryChain looks for a chain a-b-c-d realizing the overlapping
// worst-case pairs (a->c, b->d) and commits it if found.
func tryChain(g interface {
	Neighbors(int) []int
	CommonNeighbors(int, int) []int
}, dist [][]int, a int, routerDst []int, usedSrc, usedDst []bool) bool {
	for _, b := range g.Neighbors(a) {
		if usedSrc[b] || b == a {
			continue
		}
		for _, c := range g.Neighbors(b) {
			if c == a || usedDst[c] || dist[a][c] != 2 {
				continue
			}
			// Force the overlap: b must be the only minimal route
			// a -> c can take.
			if len(g.CommonNeighbors(a, c)) != 1 {
				continue
			}
			for _, d := range g.Neighbors(c) {
				if d == b || usedDst[d] || dist[b][d] != 2 {
					continue
				}
				if len(g.CommonNeighbors(b, d)) != 1 {
					continue
				}
				routerDst[a] = c
				routerDst[b] = d
				usedSrc[a], usedSrc[b] = true, true
				usedDst[c], usedDst[d] = true, true
				return true
			}
		}
	}
	return false
}
