package routing

import (
	"fmt"

	"diam2/internal/topo"
)

// CDGAcyclic verifies deadlock freedom of a VC assignment by building
// the channel dependency graph (Dally and Towles): a channel is a
// directed router-to-router link paired with a VC, and channel c1
// depends on c2 when some route may hold c1 while requesting c2. The
// route set enumerated is every minimal route between endpoint
// routers (all branches of equal-length next hops) and, when indirect
// is set, every Valiant route through every eligible intermediate.
// It returns an error describing a cycle if one exists.
//
// This is the checkable form of the Section 3.4 argument; the tests
// run it on small instances of each topology and also use it to show
// that *removing* a VC reintroduces cycles.
func CDGAcyclic(t topo.Topology, policy VCPolicy, indirect bool) error {
	return CDGAcyclicWithVCs(t, policy, indirect, 0)
}

// CDGAcyclicWithVCs is CDGAcyclic with an explicit VC count override
// (vcs <= 0 uses the policy's requirement). Routes that would need a
// higher VC clamp to the top one — exactly what a deployment with too
// few VCs would do — so passing a reduced count demonstrates where
// cycles reappear.
func CDGAcyclicWithVCs(t topo.Topology, policy VCPolicy, indirect bool, vcs int) error {
	b := newBase(t, policy, indirect)
	g := t.Graph()
	r := g.N()
	nvc := b.numVCs()
	if vcs > 0 {
		nvc = vcs
	}

	chanID := func(u, v, vc int) int { return (u*r+v)*nvc + vc }
	deps := make(map[int]map[int]bool)
	addDep := func(c1, c2 int) {
		m, ok := deps[c1]
		if !ok {
			m = make(map[int]bool)
			deps[c1] = m
		}
		m[c2] = true
	}

	vcAt := func(minimal, phaseTwo bool, hops int) int {
		if policy == VCByPhase {
			if !minimal && phaseTwo {
				return 1
			}
			return 0
		}
		return hops
	}

	// walk enumerates all minimal sub-routes from cur to tgt,
	// threading the previous channel for dependency edges, then calls
	// cont at the target.
	var walk func(cur, tgt int, hops int, prev int, minimal, phaseTwo bool, cont func(hops, prev int))
	walk = func(cur, tgt, hops, prev int, minimal, phaseTwo bool, cont func(hops, prev int)) {
		if cur == tgt {
			cont(hops, prev)
			return
		}
		want := b.dist.at(cur, tgt) - 1
		for _, nb := range g.Neighbors(cur) {
			if b.dist.at(nb, tgt) != want {
				continue
			}
			vc := vcAt(minimal, phaseTwo, hops)
			if vc >= nvc {
				vc = nvc - 1
			}
			c := chanID(cur, nb, vc)
			if prev >= 0 {
				addDep(prev, c)
			}
			walk(nb, tgt, hops+1, c, minimal, phaseTwo, cont)
		}
	}

	eps := t.EndpointRouters()
	for _, src := range eps {
		for _, dst := range eps {
			if src == dst {
				continue
			}
			walk(src, dst, 0, -1, true, false, func(int, int) {})
			if !indirect {
				continue
			}
			for _, ri := range b.eligible {
				if ri == src || ri == dst {
					continue
				}
				walk(src, ri, 0, -1, false, false, func(hops, prev int) {
					walk(ri, dst, hops, prev, false, true, func(int, int) {})
				})
			}
		}
	}

	// Cycle detection over the dependency graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int)
	var visit func(c int) error
	visit = func(c int) error {
		color[c] = gray
		for d := range deps[c] {
			switch color[d] {
			case gray:
				return fmt.Errorf("routing: channel dependency cycle through channel %d", d)
			case white:
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[c] = black
		return nil
	}
	for c := range deps {
		if color[c] == white {
			if err := visit(c); err != nil {
				return err
			}
		}
	}
	return nil
}
