package core

import (
	"testing"
	"testing/quick"
)

func TestPairIndex(t *testing.T) {
	n := 5
	seen := make(map[int]bool)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			idx := PairIndex(a, b, n)
			if idx != PairIndex(b, a, n) {
				t.Fatalf("PairIndex not symmetric for (%d,%d)", a, b)
			}
			if idx < 0 || idx >= n*(n-1)/2 {
				t.Fatalf("PairIndex(%d,%d) = %d out of range", a, b, idx)
			}
			if seen[idx] {
				t.Fatalf("PairIndex(%d,%d) = %d collides", a, b, idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("PairIndex covers %d values, want %d", len(seen), n*(n-1)/2)
	}
	if PairIndex(0, 1, 4) != 0 {
		t.Error("PairIndex(0,1,4) != 0")
	}
	if PairIndex(2, 3, 4) != 5 {
		t.Errorf("PairIndex(2,3,4) = %d, want 5", PairIndex(2, 3, 4))
	}
}

func TestFullMeshPatternVerifies(t *testing.T) {
	for _, r1 := range []int{1, 2, 3, 5, 6, 10, 15} {
		p, err := FullMeshPattern(r1)
		if err != nil {
			t.Fatalf("FullMeshPattern(%d): %v", r1, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("FullMeshPattern(%d) invalid: %v", r1, err)
		}
	}
	if _, err := FullMeshPattern(0); err == nil {
		t.Error("FullMeshPattern(0) accepted")
	}
}

func TestML3BPatternVerifies(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6, 8, 12, 14} { // k-1 prime
		p, err := ML3BPattern(k)
		if err != nil {
			t.Fatalf("ML3BPattern(%d): %v", k, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("ML3BPattern(%d) invalid: %v", k, err)
		}
		if p.R1 != 1+k*(k-1) || p.R2 != p.R1 {
			t.Fatalf("ML3BPattern(%d): R1=%d R2=%d", k, p.R1, p.R2)
		}
	}
	for _, k := range []int{1, 5, 7, 10} { // k-1 not prime (4,6,9) or too small
		if _, err := ML3BPattern(k); err == nil {
			t.Errorf("ML3BPattern(%d) accepted, want error", k)
		}
	}
}

// TestML3BTable2 checks the construction against Table 2 of the paper
// (the 4-ML3B tabular representation) cell by cell.
func TestML3BTable2(t *testing.T) {
	want := [][]int{
		{9, 10, 11, 12},
		{9, 0, 1, 2},
		{9, 3, 4, 5},
		{9, 6, 7, 8},
		{10, 0, 3, 6},
		{10, 1, 4, 7},
		{10, 2, 5, 8},
		{11, 0, 4, 8},
		{11, 1, 5, 6},
		{11, 2, 3, 7},
		{12, 0, 5, 7},
		{12, 1, 3, 8},
		{12, 2, 4, 6},
	}
	p, err := ML3BPattern(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Up) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(p.Up), len(want))
	}
	for i, row := range want {
		for j, v := range row {
			if p.Up[i][j] != v {
				t.Errorf("table[%d][%d] = %d, want %d", i, j, p.Up[i][j], v)
			}
		}
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	p, _ := FullMeshPattern(3)
	// Break the single-path property by swapping an entry.
	bad := &Pattern{R1: p.R1, R2: p.R2, Rad1: p.Rad1, Rad2: p.Rad2, Up: make([][]int, p.R1)}
	for i := range p.Up {
		bad.Up[i] = append([]int(nil), p.Up[i]...)
	}
	bad.Up[0][0], bad.Up[0][1] = bad.Up[0][1], bad.Up[0][0] // reorder only: still valid
	if err := bad.Verify(); err != nil {
		t.Fatalf("reordered rows should still verify: %v", err)
	}
	bad.Up[0][0] = bad.Up[0][1] // duplicate entry in a row
	if err := bad.Verify(); err == nil {
		t.Error("duplicate row entry not caught")
	}
	// Wrong dimensions.
	wrong := &Pattern{R1: 5, R2: 3, Rad1: 3, Rad2: 2, Up: nil}
	if err := wrong.Verify(); err == nil {
		t.Error("wrong R1 not caught")
	}
}

func TestStackValidation(t *testing.T) {
	p, _ := FullMeshPattern(4) // r1=4, r2=2 -> copies must be 4
	if _, err := Stack(p, 3); err == nil {
		t.Error("wrong copy count accepted")
	}
	if _, err := Stack(p, 0); err == nil {
		t.Error("zero copies accepted")
	}
	s, err := Stack(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.LowerRouters() != 4*5 || s.UpperRouters() != 10 {
		t.Errorf("router counts = %d/%d", s.LowerRouters(), s.UpperRouters())
	}
	if s.Radix() != 8 {
		t.Errorf("Radix = %d, want 8", s.Radix())
	}
	if s.Nodes() != 4*5*4 {
		t.Errorf("Nodes = %d", s.Nodes())
	}
}

// TestStackedMLFMCounts checks the h-MLFM closed forms of Section
// 2.2.3: R = 3/2*h*(h+1), N = h^3 + h^2.
func TestStackedMLFMCounts(t *testing.T) {
	for _, h := range []int{2, 3, 6, 15} {
		p, err := FullMeshPattern(h)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Stack(p, h)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Routers(), 3*h*(h+1)/2; got != want {
			t.Errorf("h=%d: R = %d, want %d", h, got, want)
		}
		if got, want := s.Nodes(), h*h*h+h*h; got != want {
			t.Errorf("h=%d: N = %d, want %d", h, got, want)
		}
		if got, want := s.Radix(), 2*h; got != want {
			t.Errorf("h=%d: radix = %d, want %d", h, got, want)
		}
	}
}

// TestStackedOFTCounts checks the k-OFT closed forms of Section 2.2.4:
// R = 3k^2 - 3k + 3, N = 2k^3 - 2k^2 + 2k.
func TestStackedOFTCounts(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6, 12} {
		p, err := ML3BPattern(k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Stack(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Routers(), 3*k*k-3*k+3; got != want {
			t.Errorf("k=%d: R = %d, want %d", k, got, want)
		}
		if got, want := s.Nodes(), 2*k*k*k-2*k*k+2*k; got != want {
			t.Errorf("k=%d: N = %d, want %d", k, got, want)
		}
		if got, want := s.Radix(), 2*k; got != want {
			t.Errorf("k=%d: radix = %d, want %d", k, got, want)
		}
	}
}

// TestPaperConfigurations pins the exact evaluation configurations of
// Section 4.1.
func TestPaperConfigurations(t *testing.T) {
	// MLFM with h = 15: N = 3600, R = 360, r = 30.
	p, err := FullMeshPattern(15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Stack(p, 15)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 3600 || m.Routers() != 360 || m.Radix() != 30 {
		t.Errorf("MLFM h=15: N=%d R=%d r=%d, want 3600/360/30", m.Nodes(), m.Routers(), m.Radix())
	}
	// OFT with k = 12: N = 3192, R = 399, r = 24.
	q, err := ML3BPattern(12)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Stack(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Nodes() != 3192 || o.Routers() != 399 || o.Radix() != 24 {
		t.Errorf("OFT k=12: N=%d R=%d r=%d, want 3192/399/24", o.Nodes(), o.Routers(), o.Radix())
	}
}

func TestLinksEnumeration(t *testing.T) {
	p, _ := ML3BPattern(3)
	s, _ := Stack(p, 2)
	links := s.Links()
	if len(links) != s.LowerRouters()*p.Rad1 {
		t.Fatalf("links = %d, want %d", len(links), s.LowerRouters()*p.Rad1)
	}
	for _, l := range links {
		if l[0] < 0 || l[0] >= s.LowerRouters() {
			t.Fatalf("lower endpoint %d out of range", l[0])
		}
		if l[1] < s.LowerRouters() || l[1] >= s.Routers() {
			t.Fatalf("upper endpoint %d out of range", l[1])
		}
	}
	// Upper router degree must be copies*r2.
	deg := make(map[int]int)
	for _, l := range links {
		deg[l[1]]++
	}
	for u, d := range deg {
		if d != s.Copies*p.Rad2 {
			t.Fatalf("upper router %d degree %d, want %d", u, d, s.Copies*p.Rad2)
		}
	}
}

// Property: for random valid full-mesh patterns, stacking preserves
// the per-copy single-path property (every lower pair within one copy
// has exactly one common upper neighbor).
func TestQuickStackSinglePath(t *testing.T) {
	prop := func(raw uint8) bool {
		r1 := int(raw)%8 + 2
		p, err := FullMeshPattern(r1)
		if err != nil {
			return false
		}
		s, err := Stack(p, r1)
		if err != nil {
			return false
		}
		// Within copy 0, routers i and j share exactly one upper router.
		up := make([]map[int]bool, p.R1)
		for i, row := range p.Up {
			up[i] = map[int]bool{}
			for _, u := range row {
				up[i][s.UpperID(u)] = true
			}
		}
		for i := 0; i < p.R1; i++ {
			for j := i + 1; j < p.R1; j++ {
				c := 0
				for u := range up[i] {
					if up[j][u] {
						c++
					}
				}
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
