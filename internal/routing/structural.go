package routing

import (
	"fmt"
	"math/rand"

	"diam2/internal/sim"
	"diam2/internal/topo"
)

// This file implements the paper's Section 3.1 minimal routing
// *structurally*: next hops are computed from each topology's algebra
// (field arithmetic for the Slim Fly, pair indices for the MLFM, the
// ML3B table for the OFT) instead of from all-pairs BFS tables. A
// structural router needs O(R) state instead of O(R^2) and documents
// the paper's constructive routing descriptions; the tests verify hop
// -for-hop agreement with the generic distance-based router.

// SlimFlyMinimal routes minimally on the Slim Fly using the MMS
// algebra: direct links are recognized by generator-set membership or
// the y = m*x + c incidence; distance-2 pairs route through the
// common neighbor derived in closed form.
type SlimFlyMinimal struct {
	sf *topo.SlimFly
	// Generator membership tables.
	inX, inXP []bool
}

// NewSlimFlyMinimal builds the structural Slim Fly router.
func NewSlimFlyMinimal(sf *topo.SlimFly) *SlimFlyMinimal {
	r := &SlimFlyMinimal{
		sf:   sf,
		inX:  make([]bool, sf.Q),
		inXP: make([]bool, sf.Q),
	}
	for _, x := range sf.X {
		r.inX[x] = true
	}
	for _, x := range sf.XP {
		r.inXP[x] = true
	}
	return r
}

// Name implements sim.RoutingAlgorithm.
func (m *SlimFlyMinimal) Name() string { return "SF-MIN(structural)" }

// NumVCs implements sim.RoutingAlgorithm: hop-indexed over 2-hop
// minimal paths.
func (m *SlimFlyMinimal) NumVCs() int { return 2 }

// Inject implements sim.RoutingAlgorithm.
func (m *SlimFlyMinimal) Inject(p *sim.Packet, _ *sim.Router, _ *rand.Rand) int {
	p.Minimal = true
	return 0
}

// adjacent reports whether routers a and b are directly linked, by
// the MMS construction rules.
func (m *SlimFlyMinimal) adjacent(a, b int) bool {
	sf := m.sf
	f := sf.F
	sa, xa, ya := sf.RouterCoords(a)
	sb, xb, yb := sf.RouterCoords(b)
	switch {
	case sa == sb && xa == xb:
		d := f.Sub(ya, yb)
		if sa == 0 {
			return m.inX[d]
		}
		return m.inXP[d]
	case sa == sb:
		return false
	default:
		// Normalize: subgraph-0 router (x, y), subgraph-1 (m, c).
		if sa == 1 {
			sa, xa, ya, sb, xb, yb = sb, xb, yb, sa, xa, ya
		}
		_ = sb
		return ya == f.Add(f.Mul(xb, xa), yb) // y == m*x + c
	}
}

// NextHopRouter returns the structural next router from cur toward
// dst (cur != dst); the boolean reports whether multiple minimal
// choices exist (same-column distance-2 pairs may have several).
func (m *SlimFlyMinimal) NextHopRouter(cur, dst int, rng *rand.Rand) (int, error) {
	if m.adjacent(cur, dst) {
		return dst, nil
	}
	sf := m.sf
	f := sf.F
	sc, xc, yc := sf.RouterCoords(cur)
	sd, xd, yd := sf.RouterCoords(dst)
	switch {
	case sc == sd && xc == xd:
		// Same column, not adjacent: hop within the column through
		// y'' with (yc - y'') and (y'' - yd) both in the generator
		// set. Collect all and pick one at random (footnote 1).
		gen := sf.X
		if sc == 1 {
			gen = sf.XP
		}
		var opts []int
		for _, g := range gen {
			ypp := f.Sub(yc, g)
			d := f.Sub(ypp, yd)
			ok := (sc == 0 && m.inX[d]) || (sc == 1 && m.inXP[d])
			if ok {
				opts = append(opts, sf.RouterID(sc, xc, ypp))
			}
		}
		if len(opts) == 0 {
			return 0, fmt.Errorf("routing: no column path %d -> %d", cur, dst)
		}
		return opts[rng.Intn(len(opts))], nil
	case sc == 0 && sd == 0:
		// Distinct columns of subgraph 0: unique (1, m, c) with
		// yc = m*xc + c and yd = m*xd + c.
		mm := f.Div(f.Sub(yc, yd), f.Sub(xc, xd))
		c := f.Sub(yc, f.Mul(mm, xc))
		return sf.RouterID(1, mm, c), nil
	case sc == 1 && sd == 1:
		// Distinct columns of subgraph 1 ((m, c) coordinates):
		// unique (0, x, y) with y = mc*x + cc = md*x + cd.
		x := f.Div(f.Sub(yd, yc), f.Sub(xc, xd))
		y := f.Add(f.Mul(xc, x), yc)
		return sf.RouterID(0, x, y), nil
	default:
		// Opposite subgraphs, not adjacent. Normalize to (0,x,y) vs
		// (1,mm,c); t = y - (mm*x + c) is nonzero and lies in X, X'
		// or both.
		swapped := sc == 1
		x, y, mm, c := xc, yc, xd, yd
		if swapped {
			x, y, mm, c = xd, yd, xc, yc
		}
		t := f.Sub(y, f.Add(f.Mul(mm, x), c))
		viaZero := sf.RouterID(0, x, f.Add(f.Mul(mm, x), c)) // (0,x,mx+c)
		viaOne := sf.RouterID(1, mm, f.Sub(y, f.Mul(mm, x))) // (1,m,y-mx)
		canZero := m.inX[t]
		canOne := m.inXP[t]
		// From cur we can only take hops adjacent to cur: if cur is
		// the subgraph-0 router, the column hop is viaZero and the
		// cross hop viaOne is adjacent to it too (both are common
		// neighbors of the pair). Membership decides validity.
		var opts []int
		if canZero {
			opts = append(opts, viaZero)
		}
		if canOne {
			opts = append(opts, viaOne)
		}
		if len(opts) == 0 {
			return 0, fmt.Errorf("routing: no cross-subgraph path %d -> %d", cur, dst)
		}
		return opts[rng.Intn(len(opts))], nil
	}
}

// NextHop implements sim.RoutingAlgorithm.
func (m *SlimFlyMinimal) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	next, err := m.NextHopRouter(r.ID, int(p.DstRouter), rng)
	if err != nil {
		panic(err)
	}
	port, err := r.PortTo(next)
	if err != nil {
		panic(err)
	}
	return port, int(p.Hops)
}

// MLFMMinimal routes minimally on the MLFM by pair-index arithmetic:
// cross-column local routers meet at the unique global router of
// their column pair; same-column pairs may use any of the h global
// routers of the source's column.
type MLFMMinimal struct{ m *topo.MLFM }

// NewMLFMMinimal builds the structural MLFM router.
func NewMLFMMinimal(m *topo.MLFM) *MLFMMinimal { return &MLFMMinimal{m: m} }

// Name implements sim.RoutingAlgorithm.
func (r *MLFMMinimal) Name() string { return "MLFM-MIN(structural)" }

// NumVCs implements sim.RoutingAlgorithm: minimal SSPT routing is
// deadlock-free on one VC.
func (r *MLFMMinimal) NumVCs() int { return 1 }

// Inject implements sim.RoutingAlgorithm.
func (r *MLFMMinimal) Inject(p *sim.Packet, _ *sim.Router, _ *rand.Rand) int {
	p.Minimal = true
	return 0
}

// NextHop implements sim.RoutingAlgorithm.
func (r *MLFMMinimal) NextHop(p *sim.Packet, rt *sim.Router, rng *rand.Rand) (int, int) {
	m := r.m
	cur, dst := rt.ID, int(p.DstRouter)
	var next int
	if m.Layer(cur) >= 0 {
		// At a local router: go up to a global router shared with
		// the destination's column.
		ci, cj := m.Column(cur), m.Column(dst)
		if ci != cj {
			next = m.GlobalRouter(ci, cj)
		} else {
			// Same column: any of the h global routers works.
			other := rng.Intn(m.H + 1)
			for other == ci {
				other = rng.Intn(m.H + 1)
			}
			next = m.GlobalRouter(ci, other)
		}
	} else {
		// At a global router: descend to the destination local
		// router (it must be attached, or routing was wrong).
		next = dst
	}
	port, err := rt.PortTo(next)
	if err != nil {
		panic(err)
	}
	return port, 0
}

// OFTMinimal routes minimally on the OFT via the ML3B table: the
// unique (or, for counterpart pairs, any) common L1 router of the
// source and destination rows.
type OFTMinimal struct {
	o    *topo.OFT
	rows [][]int // L1 routers of each lower-router row, ascending
}

// NewOFTMinimal builds the structural OFT router.
func NewOFTMinimal(o *topo.OFT) *OFTMinimal {
	r := &OFTMinimal{o: o, rows: make([][]int, o.RL)}
	for i := range r.rows {
		r.rows[i] = o.Graph().Neighbors(o.L0Router(i)) // sorted, see graph.Neighbors
	}
	return r
}

// Name implements sim.RoutingAlgorithm.
func (r *OFTMinimal) Name() string { return "OFT-MIN(structural)" }

// NumVCs implements sim.RoutingAlgorithm.
func (r *OFTMinimal) NumVCs() int { return 1 }

// Inject implements sim.RoutingAlgorithm.
func (r *OFTMinimal) Inject(p *sim.Packet, _ *sim.Router, _ *rand.Rand) int {
	p.Minimal = true
	return 0
}

// row returns the ML3B row index of a lower router.
func (r *OFTMinimal) row(router int) int {
	if router < r.o.RL {
		return router
	}
	return router - r.o.RL
}

// NextHop implements sim.RoutingAlgorithm.
func (r *OFTMinimal) NextHop(p *sim.Packet, rt *sim.Router, rng *rand.Rand) (int, int) {
	o := r.o
	cur, dst := rt.ID, int(p.DstRouter)
	var next int
	if o.Level(cur) != 1 {
		// Lower router: up to a common L1 neighbor of both rows
		// (both rows index the shared table; counterparts share all
		// k, other pairs exactly one).
		// The sorted rows merge into the common L1s in ascending order,
		// so a seeded rng makes the same pick on every run.
		srcRow, dstRow := r.row(cur), r.row(dst)
		a, b := r.rows[srcRow], r.rows[dstRow]
		var opts []int
		for len(a) > 0 && len(b) > 0 {
			switch {
			case a[0] < b[0]:
				a = a[1:]
			case a[0] > b[0]:
				b = b[1:]
			default:
				opts = append(opts, a[0])
				a, b = a[1:], b[1:]
			}
		}
		if len(opts) == 0 {
			panic(fmt.Sprintf("routing: rows %d and %d share no L1", srcRow, dstRow))
		}
		next = opts[rng.Intn(len(opts))]
	} else {
		next = dst
	}
	port, err := rt.PortTo(next)
	if err != nil {
		panic(err)
	}
	return port, 0
}
