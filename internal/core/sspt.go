// Package core implements the paper's primary contribution: the
// Stacked Single-Path Tree (SSPT) topology class (Section 2.2.2).
//
// A Single-Path Tree SPT(r1, r2) is a two-level indirect network in
// which (i) exactly one minimal path exists between any pair of
// level-one routers and (ii) a minimal number of level-two routers is
// used. Level-one routers have r1 uplinks, level-two routers have r2
// downlinks, giving R1 = 1 + r1*(r2-1) level-one routers and
// R2 = R1*r1/r2 level-two routers.
//
// Stacking instantiates 2*r1/r2 identical SPTs and merges the
// corresponding level-two routers of each tuple into single physical
// routers of radix 2*r1, so that the network can be built from
// identical routers. The Multi-Layer Full-Mesh is the r2 = 2 instance
// and the two-level Orthogonal Fat-Tree is the r2 = r1 instance.
// Combinatorially, SPT(k, k) is a projective plane of order k-1.
package core

import (
	"fmt"

	"diam2/internal/galois"
)

// Pattern is the level-one to level-two interconnection pattern of an
// SPT(R1xR2 bipartite graph): Up[i] lists the R2-side routers adjacent
// to level-one router i. Every row has r1 entries and every level-two
// router appears in exactly r2 rows.
type Pattern struct {
	R1, R2 int
	Rad1   int // r1: uplinks per level-one router
	Rad2   int // r2: downlinks per level-two router
	Up     [][]int
}

// Verify checks the SPT defining properties:
//   - dimensions: R1 = 1 + r1*(r2-1), R2 = R1*r1/r2;
//   - each row has r1 distinct entries in [0, R2);
//   - each level-two router appears in exactly r2 rows;
//   - every pair of distinct level-one routers shares exactly one
//     common level-two neighbor (the single-path property).
func (p *Pattern) Verify() error {
	if want := 1 + p.Rad1*(p.Rad2-1); p.R1 != want {
		return fmt.Errorf("core: R1 = %d, want 1 + r1*(r2-1) = %d", p.R1, want)
	}
	if p.R1*p.Rad1%p.Rad2 != 0 {
		return fmt.Errorf("core: R1*r1 = %d not divisible by r2 = %d", p.R1*p.Rad1, p.Rad2)
	}
	if want := p.R1 * p.Rad1 / p.Rad2; p.R2 != want {
		return fmt.Errorf("core: R2 = %d, want R1*r1/r2 = %d", p.R2, want)
	}
	if len(p.Up) != p.R1 {
		return fmt.Errorf("core: Up has %d rows, want %d", len(p.Up), p.R1)
	}
	appear := make([]int, p.R2)
	for i, row := range p.Up {
		if len(row) != p.Rad1 {
			return fmt.Errorf("core: row %d has %d entries, want %d", i, len(row), p.Rad1)
		}
		seen := make(map[int]bool, len(row))
		for _, u := range row {
			if u < 0 || u >= p.R2 {
				return fmt.Errorf("core: row %d entry %d out of range [0,%d)", i, u, p.R2)
			}
			if seen[u] {
				return fmt.Errorf("core: row %d repeats level-two router %d", i, u)
			}
			seen[u] = true
			appear[u]++
		}
	}
	for u, c := range appear {
		if c != p.Rad2 {
			return fmt.Errorf("core: level-two router %d appears in %d rows, want %d", u, c, p.Rad2)
		}
	}
	// Single-path property: exactly one common upper neighbor per pair.
	sets := make([]map[int]bool, p.R1)
	for i, row := range p.Up {
		sets[i] = make(map[int]bool, len(row))
		for _, u := range row {
			sets[i][u] = true
		}
	}
	for i := 0; i < p.R1; i++ {
		for j := i + 1; j < p.R1; j++ {
			common := 0
			for u := range sets[i] {
				if sets[j][u] {
					common++
				}
			}
			if common != 1 {
				return fmt.Errorf("core: level-one routers %d and %d share %d common neighbors, want 1", i, j, common)
			}
		}
	}
	return nil
}

// FullMeshPattern builds the SPT(r1, 2) pattern underlying the
// Multi-Layer Full-Mesh: level-one routers are the h+1 = r1+1 local
// routers of one layer and each level-two (global) router corresponds
// to an unordered pair {a, b} of them. Valid for any r1 >= 1.
func FullMeshPattern(r1 int) (*Pattern, error) {
	if r1 < 1 {
		return nil, fmt.Errorf("core: FullMeshPattern requires r1 >= 1, got %d", r1)
	}
	n := r1 + 1 // level-one routers
	p := &Pattern{
		R1:   n,
		R2:   n * r1 / 2,
		Rad1: r1,
		Rad2: 2,
		Up:   make([][]int, n),
	}
	for i := 0; i < n; i++ {
		row := make([]int, 0, r1)
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, PairIndex(i, j, n))
			}
		}
		p.Up[i] = row
	}
	return p, nil
}

// PairIndex maps the unordered pair {a,b} (a != b, both in [0,n)) to a
// dense index in [0, n*(n-1)/2), in lexicographic order of (min,max).
func PairIndex(a, b, n int) int {
	if a > b {
		a, b = b, a
	}
	// Pairs (0,1),(0,2),...,(0,n-1),(1,2),...
	return a*n - a*(a+1)/2 + (b - a - 1)
}

// ML3BPattern builds the Maximal Leaves Basic Building Block of degree
// k — the SPT(k, k) pattern of the two-level k-OFT — using the
// tabular algorithm of Section 2.2.4 (valid when k-1 is prime). Row i
// of the table lists the level-one neighbors of level-zero router i;
// here that is exactly Up[i].
func ML3BPattern(k int) (*Pattern, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: ML3BPattern requires k >= 2, got %d", k)
	}
	if k > 2 && !galois.IsPrime(k-1) {
		return nil, fmt.Errorf("core: ML3BPattern requires k-1 prime, got k = %d", k)
	}
	rl := 1 + k*(k-1)
	tab := make([][]int, rl)
	for i := range tab {
		tab[i] = make([]int, k)
	}
	// Step 1: first row gets RL-k .. RL-1.
	for j := 0; j < k; j++ {
		tab[0][j] = rl - k + j
	}
	// Step 2: remaining first-column cells: k-1 instances of RL-k,
	// then k-1 instances of RL-k+1, ... Rows 1..k(k-1) in k blocks of
	// k-1 rows.
	for b := 0; b < k; b++ {
		for r := 0; r < k-1; r++ {
			tab[1+b*(k-1)+r][0] = rl - k + b
		}
	}
	// Step 3: fill the k squares of size (k-1)x(k-1).
	n := k - 1
	fill := func(b int, val func(i, j int) int) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				tab[1+b*n+i][1+j] = val(i, j)
			}
		}
	}
	// Square 0: 0..(k-1)^2-1 row-major.
	fill(0, func(i, j int) int { return i*n + j })
	// Square 1: transpose of square 0.
	fill(1, func(i, j int) int { return j*n + i })
	// Squares 2..k-1: the mutually orthogonal Latin squares
	// L_a(i,j) = (i + a*j) mod n, a = b-1, with column j offset by
	// j*(k-1).
	for b := 2; b < k; b++ {
		a := b - 1
		fill(b, func(i, j int) int { return (i+a*j)%n + j*n })
	}
	return &Pattern{R1: rl, R2: rl, Rad1: k, Rad2: k, Up: tab}, nil
}

// Stacked is an SSPT: copies of an SPT pattern whose corresponding
// level-two routers are merged. Lower routers are indexed
// (copy, row) -> copy*R1 + row; upper routers follow, indexed
// Lower() + u.
type Stacked struct {
	Pattern *Pattern
	Copies  int
}

// Stack validates that copies equals 2*r1/r2 (the identical-radix
// stacking of the paper) and returns the SSPT descriptor.
func Stack(p *Pattern, copies int) (*Stacked, error) {
	if copies < 1 {
		return nil, fmt.Errorf("core: copies = %d, want >= 1", copies)
	}
	if 2*p.Rad1%p.Rad2 != 0 || copies != 2*p.Rad1/p.Rad2 {
		return nil, fmt.Errorf("core: copies = %d does not satisfy copies = 2*r1/r2 = %d/%d", copies, 2*p.Rad1, p.Rad2)
	}
	return &Stacked{Pattern: p, Copies: copies}, nil
}

// LowerRouters returns the number of (endpoint-attached) lower routers.
func (s *Stacked) LowerRouters() int { return s.Copies * s.Pattern.R1 }

// UpperRouters returns the number of merged upper routers.
func (s *Stacked) UpperRouters() int { return s.Pattern.R2 }

// Routers returns the total router count.
func (s *Stacked) Routers() int { return s.LowerRouters() + s.UpperRouters() }

// NodesPerLower returns p, the end-nodes attached to each lower
// router for maximum uniform-traffic performance (p = r1).
func (s *Stacked) NodesPerLower() int { return s.Pattern.Rad1 }

// Nodes returns the total end-node count N = copies * R1 * r1.
func (s *Stacked) Nodes() int { return s.LowerRouters() * s.NodesPerLower() }

// Radix returns the (uniform) physical router radix 2*r1.
func (s *Stacked) Radix() int { return 2 * s.Pattern.Rad1 }

// LowerID returns the router index of level-one router row in copy c.
func (s *Stacked) LowerID(c, row int) int { return c*s.Pattern.R1 + row }

// UpperID returns the router index of merged level-two router u.
func (s *Stacked) UpperID(u int) int { return s.LowerRouters() + u }

// Links enumerates all router-to-router links of the stacked topology
// as (lower, upper) physical-router index pairs.
func (s *Stacked) Links() [][2]int {
	out := make([][2]int, 0, s.LowerRouters()*s.Pattern.Rad1)
	for c := 0; c < s.Copies; c++ {
		for i, row := range s.Pattern.Up {
			l := s.LowerID(c, i)
			for _, u := range row {
				out = append(out, [2]int{l, s.UpperID(u)})
			}
		}
	}
	return out
}
