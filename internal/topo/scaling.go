package topo

import "diam2/internal/galois"

// ScalingEntry gives, for one topology family at a fixed maximum
// router radix, the largest constructible configuration and its
// cost metrics (the data behind Fig. 3).
type ScalingEntry struct {
	Family       string
	Param        int // family parameter chosen (q, h, k, s, or radix)
	Nodes        int // end-nodes of the largest instance with radix <= r
	Diameter     int // endpoint-router diameter
	LinksPerNode float64
	PortsPerNode float64
}

// MaxSlimFlyQ returns the largest Slim Fly parameter q (prime power of
// the form 4w+delta) whose router radix fits r, under the given
// rounding, along with the endpoint count. Returns q = 0 when none fits.
func MaxSlimFlyQ(r int, rounding Rounding) (q, nodes int) {
	for cand := 3; ; cand++ {
		if !galois.IsPrimePower(cand) {
			continue
		}
		w, delta, err := SlimFlyDelta(cand)
		if err != nil || w < 1 {
			continue
		}
		rp := (3*cand - delta) / 2
		p := rp / 2
		if rounding == RoundUp {
			p = (rp + 1) / 2
		}
		if rp+p > r {
			return q, nodes
		}
		q, nodes = cand, 2*cand*cand*p
	}
}

// MaxOFTK returns the largest OFT parameter k (k-1 prime or k = 2)
// with 2k <= r, with its endpoint count; k = 0 when none fits.
func MaxOFTK(r int) (k, nodes int) {
	for cand := 2; 2*cand <= r; cand++ {
		if cand > 2 && !galois.IsPrime(cand-1) {
			continue
		}
		k, nodes = cand, 2*cand*cand*cand-2*cand*cand+2*cand
	}
	return k, nodes
}

// ScalingTable computes the Fig. 3 comparison for a maximum router
// radix r: the largest instance of each family constructible from
// routers of radix at most r.
func ScalingTable(r int) []ScalingEntry {
	var out []ScalingEntry
	// 2D HyperX: s = floor(r/3)+1 routers per dimension, p = r - 2*(s-1).
	if s := r/3 + 1; s >= 2 {
		out = append(out, direct("HyperX", s, 2, s*s, 2*(s-1), r-2*(s-1)))
	}
	for _, rd := range []Rounding{RoundDown, RoundUp} {
		q, _ := MaxSlimFlyQ(r, rd)
		if q == 0 {
			continue
		}
		name := "SlimFly(floor)"
		if rd == RoundUp {
			name = "SlimFly(ceil)"
		}
		_, delta, _ := SlimFlyDelta(q)
		rp := (3*q - delta) / 2
		p := rp / 2
		if rd == RoundUp {
			p = (rp + 1) / 2
		}
		out = append(out, direct(name, q, 2, 2*q*q, rp, p))
	}
	if r >= 2 {
		re := r - r%2 // even radix
		out = append(out, ScalingEntry{
			Family: "FatTree2", Param: re, Nodes: re * re / 2, Diameter: 2,
			LinksPerNode: 2, PortsPerNode: 3,
		})
		out = append(out, ScalingEntry{
			Family: "FatTree3", Param: re, Nodes: re * re * re / 4, Diameter: 4,
			LinksPerNode: 3, PortsPerNode: 5,
		})
		h := re / 2
		out = append(out, ScalingEntry{
			Family: "MLFM", Param: h, Nodes: h*h*h + h*h, Diameter: 2,
			LinksPerNode: 2, PortsPerNode: 3,
		})
	}
	if k, n := MaxOFTK(r); k > 0 {
		out = append(out, ScalingEntry{
			Family: "OFT", Param: k, Nodes: n, Diameter: 2,
			LinksPerNode: 2, PortsPerNode: 3,
		})
	}
	// Balanced Dragonfly (diameter 3): included as the widely
	// deployed cost-reduced alternative the paper's introduction
	// discusses. a = 2h routers per group, p = h end-nodes and h
	// global links per router, g = a*h+1 groups; radix 4h-1 <= r.
	if h := (r + 1) / 4; h >= 1 {
		a := 2 * h
		out = append(out, direct("Dragonfly", h, 3, a*(a*h+1), a-1+h, h))
	}
	return out
}

// direct is the row of a direct network built from identical routers,
// each with deg router-to-router links and p end-nodes.
func direct(family string, param, diameter, routers, deg, p int) ScalingEntry {
	n := routers * p
	links := n + routers*deg/2
	ports := routers * (deg + p)
	return ScalingEntry{
		Family: family, Param: param, Nodes: n, Diameter: diameter,
		LinksPerNode: float64(links) / float64(n),
		PortsPerNode: float64(ports) / float64(n),
	}
}
