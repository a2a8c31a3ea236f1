package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// cycle builds a cycle graph on n vertices.
func cycle(n int) *Graph {
	g := path(n)
	g.MustAddEdge(n-1, 0)
	return g
}

// complete builds K_n.
func complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestBasicAccessors(t *testing.T) {
	g := complete(5)
	if g.N() != 5 {
		t.Errorf("N = %d", g.N())
	}
	if g.NumEdges() != 10 {
		t.Errorf("NumEdges = %d, want 10", g.NumEdges())
	}
	if g.MaxDegree() != 4 || g.MinDegree() != 4 {
		t.Errorf("degrees = (%d,%d), want (4,4)", g.MaxDegree(), g.MinDegree())
	}
	for u := 0; u < 5; u++ {
		if g.Degree(u) != 4 {
			t.Errorf("Degree(%d) = %d", u, g.Degree(u))
		}
		if g.HasEdge(u, u) {
			t.Errorf("HasEdge(%d,%d) true", u, u)
		}
	}
	es := g.Edges()
	if len(es) != 10 {
		t.Fatalf("Edges length %d", len(es))
	}
	for _, e := range es {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	g.MustAddEdge(3, 5)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(3, 0)
	nb := g.Neighbors(3)
	want := []int{0, 1, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nb, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("BFS(0)[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	d := g.BFS(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Errorf("disconnected distances = %v", d)
	}
	if g.Connected() {
		t.Error("Connected() true for disconnected graph")
	}
	if _, ok := g.Diameter(); ok {
		t.Error("Diameter ok for disconnected graph")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(2), 1},
		{path(5), 4},
		{cycle(6), 3},
		{cycle(7), 3},
		{complete(8), 1},
	}
	for i, c := range cases {
		d, ok := c.g.Diameter()
		if !ok || d != c.want {
			t.Errorf("case %d: Diameter = (%d,%v), want (%d,true)", i, d, ok, c.want)
		}
	}
}

func TestDistanceMatrixMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(30, 60, rng)
	m := g.DistanceMatrix()
	for u := 0; u < g.N(); u++ {
		d := g.BFS(u)
		for v := range d {
			if m[u][v] != d[v] {
				t.Fatalf("matrix[%d][%d] = %d, BFS = %d", u, v, m[u][v], d[v])
			}
		}
	}
}

func randomConnected(n, extra int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func TestCountMinimalPaths(t *testing.T) {
	// 4-cycle: two shortest paths between opposite corners.
	g := cycle(4)
	if got := g.CountMinimalPaths(0, 2); got != 2 {
		t.Errorf("cycle4 paths(0,2) = %d, want 2", got)
	}
	if got := g.CountMinimalPaths(0, 1); got != 1 {
		t.Errorf("cycle4 paths(0,1) = %d, want 1", got)
	}
	if got := g.CountMinimalPaths(1, 1); got != 1 {
		t.Errorf("paths(1,1) = %d, want 1", got)
	}
	// K4: single edge path between any pair.
	k := complete(4)
	if got := k.CountMinimalPaths(0, 3); got != 1 {
		t.Errorf("K4 paths(0,3) = %d, want 1", got)
	}
	// Disconnected.
	d := New(3)
	d.MustAddEdge(0, 1)
	if got := d.CountMinimalPaths(0, 2); got != 0 {
		t.Errorf("disconnected paths = %d, want 0", got)
	}
}

func TestCountMinimalPathsGrid(t *testing.T) {
	// 3x3 grid: paths from corner to corner = C(4,2) = 6.
	g := New(9)
	at := func(r, c int) int { return r*3 + c }
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c+1 < 3 {
				g.MustAddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < 3 {
				g.MustAddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	if got := g.CountMinimalPaths(at(0, 0), at(2, 2)); got != 6 {
		t.Errorf("grid corner paths = %d, want 6", got)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(1, 5)
	cn := g.CommonNeighbors(0, 1)
	if len(cn) != 2 || cn[0] != 3 || cn[1] != 4 {
		t.Errorf("CommonNeighbors = %v, want [3 4]", cn)
	}
	if got := g.CommonNeighbors(2, 5); len(got) != 0 {
		t.Errorf("CommonNeighbors(2,5) = %v, want empty", got)
	}
}

func TestClone(t *testing.T) {
	g := cycle(5)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("Clone shares adjacency storage")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Errorf("clone edges = %d", c.NumEdges())
	}
}

func TestPathDiversityAtDistance(t *testing.T) {
	// Complete bipartite K_{2,3}: vertices 0,1 on one side; 2,3,4 other.
	g := New(5)
	for _, u := range []int{0, 1} {
		for _, v := range []int{2, 3, 4} {
			g.MustAddEdge(u, v)
		}
	}
	st := g.PathDiversityAtDistance(2, nil)
	// Distance-2 pairs: (0,1) x2 ordered with 3 common neighbors;
	// (2,3),(2,4),(3,4) x2 ordered with 2 common neighbors.
	if st.Pairs != 8 {
		t.Fatalf("Pairs = %d, want 8", st.Pairs)
	}
	if st.Max != 3 || st.Min != 2 {
		t.Errorf("Max/Min = %d/%d, want 3/2", st.Max, st.Min)
	}
	wantMean := (2.0*3 + 6.0*2) / 8.0
	if st.Mean != wantMean {
		t.Errorf("Mean = %v, want %v", st.Mean, wantMean)
	}
	if st.AtLeast2 != 8 {
		t.Errorf("AtLeast2 = %d, want 8", st.AtLeast2)
	}
}

func TestPathDiversityInclude(t *testing.T) {
	g := cycle(4)
	st := g.PathDiversityAtDistance(2, func(v int) bool { return v%2 == 0 })
	if st.Pairs != 2 { // (0,2) and (2,0)
		t.Fatalf("Pairs = %d, want 2", st.Pairs)
	}
	if st.Max != 2 || st.Mean != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: in any connected random graph, distances satisfy the
// triangle inequality through any intermediate vertex.
func TestQuickDistanceProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := randomConnected(n, n, rng)
		m := g.DistanceMatrix()
		for trial := 0; trial < 20; trial++ {
			u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if m[u][v] > m[u][w]+m[w][v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDistanceMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(338, 3000, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.DistanceMatrix()
	}
}

func TestGirth(t *testing.T) {
	if g := path(5).Girth(); g != 0 {
		t.Errorf("path girth = %d, want 0", g)
	}
	if g := cycle(7).Girth(); g != 7 {
		t.Errorf("C7 girth = %d, want 7", g)
	}
	if g := complete(4).Girth(); g != 3 {
		t.Errorf("K4 girth = %d, want 3", g)
	}
	// Complete bipartite K_{2,3}: girth 4.
	b := New(5)
	for _, u := range []int{0, 1} {
		for _, v := range []int{2, 3, 4} {
			b.MustAddEdge(u, v)
		}
	}
	if g := b.Girth(); g != 4 {
		t.Errorf("K23 girth = %d, want 4", g)
	}
	// Petersen graph: girth 5.
	p := New(10)
	for i := 0; i < 5; i++ {
		p.MustAddEdge(i, (i+1)%5)     // outer cycle
		p.MustAddEdge(5+i, 5+(i+2)%5) // inner pentagram
		p.MustAddEdge(i, 5+i)
	}
	if g := p.Girth(); g != 5 {
		t.Errorf("Petersen girth = %d, want 5", g)
	}
}
