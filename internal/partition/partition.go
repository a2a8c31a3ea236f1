// Package partition implements heuristic balanced graph bisection,
// used to approximate the bisection bandwidth of the diameter-two
// topologies (Fig. 4 of the paper). The paper used a multilevel
// partitioner (METIS); this package substitutes a greedy-growth
// seeding followed by Fiduccia–Mattheyses-style single-vertex
// refinement with random restarts, which reaches the same qualitative
// estimates on graphs of a few hundred to a few thousand vertices.
//
// Vertices carry integer weights (the number of end-nodes attached to
// a router); the bisection must split the total weight in half, while
// the cut counts router-to-router links only.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"diam2/internal/graph"
)

// Result describes a balanced bisection.
type Result struct {
	Side    []bool // Side[v]: true if v is in part B
	Cut     int    // number of edges crossing the bisection
	WeightA int
	WeightB int
}

// Config controls the heuristic.
type Config struct {
	Restarts int   // independent restarts (default 8)
	Passes   int   // maximum refinement passes per restart (default 16)
	Seed     int64 // RNG seed
}

func (c *Config) setDefaults() {
	if c.Restarts <= 0 {
		c.Restarts = 8
	}
	if c.Passes <= 0 {
		c.Passes = 16
	}
}

// Bisect computes a balanced bisection of g under vertex weights w
// (len(w) == g.N(); weights may be zero). It returns the best cut
// found across restarts.
func Bisect(g *graph.Graph, w []int, cfg Config) (*Result, error) {
	if err := checkWeights(g, w); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	return bisect(g, w, 1, 2, cfg), nil
}

// KWay partitions g into k parts by recursive proportional bisection:
// each level splits the vertex set so part counts divide as evenly as
// the integer weights allow, reusing the same seeded FM refinement as
// Bisect. The result maps every vertex to a part in [0, k); it is a
// pure deterministic function of (g, w, k, cfg), which is what the
// parallel simulation engine's fixed-partition determinism contract
// requires. Every part is guaranteed at least one vertex, so k must
// not exceed g.N().
func KWay(g *graph.Graph, w []int, k int, cfg Config) ([]int, error) {
	if err := checkWeights(g, w); err != nil {
		return nil, err
	}
	n := g.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("partition: %d parts for %d vertices", k, n)
	}
	cfg.setDefaults()
	part := make([]int, n)
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	kwaySplit(g, w, verts, k, 0, cfg, part)
	return part, nil
}

// checkWeights rejects a weight vector that does not fit g, an empty
// graph and negative weights.
func checkWeights(g *graph.Graph, w []int) error {
	if len(w) != g.N() {
		return fmt.Errorf("partition: %d weights for %d vertices", len(w), g.N())
	}
	if g.N() == 0 {
		return fmt.Errorf("partition: empty graph")
	}
	for _, wi := range w {
		if wi < 0 {
			return fmt.Errorf("partition: negative weight")
		}
	}
	return nil
}

// kwaySplit assigns parts [base, base+k) to the given vertex subset,
// recursively bisecting with a target weight proportional to the part
// counts on each side.
func kwaySplit(g *graph.Graph, w []int, verts []int, k, base int, cfg Config, part []int) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	ka := k / 2
	side := bisectSubset(g, w, verts, ka, k, cfg)
	var va, vb []int
	for i, v := range verts {
		if side[i] {
			vb = append(vb, v)
		} else {
			va = append(va, v)
		}
	}
	// Each side must host at least one vertex per part it will be split
	// into; rebalance deterministically (lowest vertex id first) if the
	// weighted cut starved a side — possible with zero-weight vertices
	// or tiny subsets.
	for len(va) < ka {
		va = append(va, vb[0])
		vb = vb[1:]
	}
	for len(vb) < k-ka {
		vb = append(vb, va[0])
		va = va[1:]
	}
	// Derive per-level seeds so the two branches refine independently
	// but deterministically.
	cfgA, cfgB := cfg, cfg
	cfgA.Seed = cfg.Seed*2 + 1
	cfgB.Seed = cfg.Seed*2 + 2
	kwaySplit(g, w, va, ka, base, cfgA, part)
	kwaySplit(g, w, vb, k-ka, base+ka, cfgB, part)
}

// bisectSubset bisects the induced subgraph on verts with target
// weight fraction num/den on side A, returning the side flags indexed
// like verts.
func bisectSubset(g *graph.Graph, w []int, verts []int, num, den int, cfg Config) []bool {
	pos := make(map[int]int, len(verts))
	for i, v := range verts {
		pos[v] = i
	}
	sg := graph.New(len(verts))
	sw := make([]int, len(verts))
	for i, v := range verts {
		sw[i] = w[v]
		for _, u := range g.Neighbors(v) {
			if j, ok := pos[u]; ok && j > i {
				sg.MustAddEdge(i, j)
			}
		}
	}
	return bisect(sg, sw, num, den, cfg).Side
}

// bisect returns the best of cfg.Restarts seeded bisections of g with
// target weight fraction num/den on side A. A perfectly proportional
// split may be impossible with integer weights, so the balance allows
// a slack of one vertex weight beyond it; for unit weights and an
// exact target this forces an exact split.
func bisect(g *graph.Graph, w []int, num, den int, cfg Config) *Result {
	total, maxW := 0, 0
	for _, wi := range w {
		total += wi
		if wi > maxW {
			maxW = wi
		}
	}
	target := total * num / den
	slack := 0
	if total*num%den != 0 {
		slack = 1
	}
	if maxW > 1 {
		slack = maxW - 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		// Rotate seeding strategies: BFS growth finds the natural cuts
		// of tree-like and layered graphs; spectral (Fiedler-vector)
		// seeding finds global structure; random balanced starts add
		// diversity on expanders (e.g. the Slim Fly), where a grown
		// ball has a very poor boundary.
		var seed seedKind
		switch restart % 3 {
		case 0:
			seed = seedBFS
		case 1:
			seed = seedSpectral
		default:
			seed = seedRandom
		}
		res := bisectOnce(g, w, total, target, slack, cfg.Passes, rng, seed)
		if best == nil || res.Cut < best.Cut {
			best = res
		}
	}
	return best
}

type seedKind int

const (
	seedBFS seedKind = iota
	seedSpectral
	seedRandom
)

// bisectOnce seeds part A with the chosen strategy until it holds the
// target weight, then refines with FM passes.
func bisectOnce(g *graph.Graph, w []int, total, target, slack, passes int, rng *rand.Rand, seed seedKind) *Result {
	n := g.N()
	side := make([]bool, n) // false = A, true = B
	for i := range side {
		side[i] = true
	}
	wa := 0
	switch seed {
	case seedRandom:
		perm := rng.Perm(n)
		for _, v := range perm {
			if wa >= target {
				break
			}
			side[v] = false
			wa += w[v]
		}
	case seedSpectral:
		fv := fiedlerVector(g, 60, rng)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return fv[order[a]] < fv[order[b]] })
		for _, v := range order {
			if wa >= target {
				break
			}
			side[v] = false
			wa += w[v]
		}
	default:
		visited := make([]bool, n)
		queue := []int{rng.Intn(n)}
		visited[queue[0]] = true
		// BFS growth; if the frontier empties (disconnected), jump to
		// a random unvisited vertex.
		for wa < target {
			if len(queue) == 0 {
				for trial := 0; trial < n; trial++ {
					v := rng.Intn(n)
					if !visited[v] {
						visited[v] = true
						queue = append(queue, v)
						break
					}
				}
				if len(queue) == 0 {
					break
				}
			}
			v := queue[0]
			queue = queue[1:]
			side[v] = false
			wa += w[v]
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}

	cut := cutSize(g, side)
	for pass := 0; pass < passes; pass++ {
		improved, newCut, newWA := fmPass(g, w, side, wa, total, target, slack, cut)
		cut, wa = newCut, newWA
		if !improved {
			break
		}
	}
	return &Result{Side: side, Cut: cut, WeightA: wa, WeightB: total - wa}
}

// fmPass performs one Fiduccia–Mattheyses pass: vertices are moved
// one at a time (best gain first, balance permitting), each at most
// once; at the end the prefix of moves with the lowest running cut is
// kept. Returns whether the cut improved.
func fmPass(g *graph.Graph, w []int, side []bool, wa, total, target, slack, cut int) (bool, int, int) {
	n := g.N()
	gain := make([]int, n)
	locked := make([]bool, n)
	for v := 0; v < n; v++ {
		gain[v] = moveGain(g, side, v)
	}
	type move struct{ v, cutAfter, waAfter int }
	moves := make([]move, 0, n)
	curCut, curWA := cut, wa
	bestCut, bestIdx := cut, -1

	for step := 0; step < n; step++ {
		bestV, bestGain := -1, 0
		for v := 0; v < n; v++ {
			if locked[v] {
				continue
			}
			// Balance check for moving v to the other side.
			nwa := curWA
			if side[v] {
				nwa += w[v]
			} else {
				nwa -= w[v]
			}
			if abs(nwa-target) > slack && abs(nwa-target) > abs(curWA-target) {
				continue
			}
			if bestV == -1 || gain[v] > bestGain {
				bestV, bestGain = v, gain[v]
			}
		}
		if bestV == -1 {
			break
		}
		// Apply the move.
		locked[bestV] = true
		curCut -= gain[bestV]
		if side[bestV] {
			curWA += w[bestV]
		} else {
			curWA -= w[bestV]
		}
		side[bestV] = !side[bestV]
		for _, u := range g.Neighbors(bestV) {
			gain[u] = moveGain(g, side, u)
		}
		gain[bestV] = -gain[bestV]
		moves = append(moves, move{bestV, curCut, curWA})
		if curCut < bestCut && abs(curWA-target) <= slack {
			bestCut, bestIdx = curCut, len(moves)-1
		}
	}
	// Roll back past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		side[v] = !side[v]
	}
	if bestIdx == -1 {
		return false, cut, wa
	}
	return bestCut < cut, bestCut, moves[bestIdx].waAfter
}

// moveGain is the cut reduction from moving v to the other side:
// (crossing edges at v) - (internal edges at v).
func moveGain(g *graph.Graph, side []bool, v int) int {
	gain := 0
	for _, u := range g.Neighbors(v) {
		if side[u] != side[v] {
			gain++
		} else {
			gain--
		}
	}
	return gain
}

func cutSize(g *graph.Graph, side []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if side[e[0]] != side[e[1]] {
			cut++
		}
	}
	return cut
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BisectionPerNode converts a cut into the paper's Fig. 4 metric:
// the bisection bandwidth available per end-node in one half,
// expressed as a fraction of the link bandwidth b. nodes is the total
// end-node count N.
func BisectionPerNode(cut, nodes int) float64 {
	if nodes == 0 {
		return 0
	}
	return float64(cut) / (float64(nodes) / 2)
}
