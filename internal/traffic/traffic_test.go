package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"diam2/internal/topo"
)

func TestUniformDest(t *testing.T) {
	u := Uniform{N: 10}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		d := u.Dest(4, rng)
		if d == 4 {
			t.Fatal("uniform destination equals source")
		}
		if d < 0 || d >= 10 {
			t.Fatalf("destination %d out of range", d)
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 4 {
			continue
		}
		if c < 900 || c > 1350 {
			t.Errorf("destination %d drawn %d times, want ~1111", d, c)
		}
	}
}

func TestPermutationValidate(t *testing.T) {
	good := Permutation{Label: "p", Perm: []int{1, 2, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := (Permutation{Label: "fix", Perm: []int{0, 2, 1}}).Validate(); err == nil {
		t.Error("fixed point accepted")
	}
	if err := (Permutation{Label: "dup", Perm: []int{1, 1, 0}}).Validate(); err == nil {
		t.Error("duplicate destination accepted")
	}
	if err := (Permutation{Label: "oob", Perm: []int{1, 3, 0}}).Validate(); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestRouterShiftMLFM(t *testing.T) {
	m, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RouterShift(m, m.WorstCaseShift())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Worst-case property: every source/destination router pair must
	// be cross-column (single minimal path).
	for src, dst := range p.Perm {
		rs, rd := m.NodeRouter(src), m.NodeRouter(dst)
		if rs == rd {
			t.Fatalf("node %d maps within its own router", src)
		}
		if m.Column(rs) == m.Column(rd) {
			t.Fatalf("shift pair (%d,%d) shares column %d", rs, rd, m.Column(rs))
		}
	}
}

func TestRouterShiftOFT(t *testing.T) {
	o, err := topo.NewOFT(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RouterShift(o, o.WorstCaseShift())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Worst-case property: no pair may be symmetric counterparts
	// (those have k minimal paths).
	for src, dst := range p.Perm {
		rs, rd := o.NodeRouter(src), o.NodeRouter(dst)
		if rd == o.Counterpart(rs) {
			t.Fatalf("shift pair (%d,%d) are symmetric counterparts", rs, rd)
		}
	}
}

func TestRouterShiftRejectsFullCycleOffset(t *testing.T) {
	m, _ := topo.NewMLFM(3)
	if _, err := RouterShift(m, 0); err == nil {
		t.Error("offset 0 accepted")
	}
	if _, err := RouterShift(m, len(m.EndpointRouters())); err == nil {
		t.Error("full-cycle offset accepted")
	}
}

func TestSlimFlyWorstCase(t *testing.T) {
	sf, err := topo.NewSlimFly(5, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p, err := WorstCase(sf, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Most router pairs must be at distance 2 (the greedy pass covers
	// nearly everything; the fallback may pair a handful at distance 1).
	g := sf.Graph()
	dist := g.DistanceMatrix()
	dist2 := 0
	routers := 0
	seen := map[int]bool{}
	for src, dst := range p.Perm {
		rs, rd := sf.NodeRouter(src), sf.NodeRouter(dst)
		if seen[rs] {
			continue
		}
		seen[rs] = true
		routers++
		if dist[rs][rd] == 2 {
			dist2++
		}
	}
	if float64(dist2) < 0.8*float64(routers) {
		t.Errorf("only %d/%d worst-case pairs at distance 2", dist2, routers)
	}
	// Router-level mapping must be consistent: all nodes of a router
	// map to nodes of one router.
	for src, dst := range p.Perm {
		rs, rd := sf.NodeRouter(src), sf.NodeRouter(dst)
		for _, m := range sf.RouterNodes(rs) {
			if sf.NodeRouter(p.Perm[m]) != rd {
				t.Fatalf("router %d nodes scatter across destinations", rs)
			}
		}
	}
}

// TestSlimFlyWorstCaseEverySeed pins the fallback's last-router trade:
// when the only free destination is the unpaired router itself (10-18%
// of seeds), the pairing must still complete.
func TestSlimFlyWorstCaseEverySeed(t *testing.T) {
	for _, q := range []int{5, 7, 13} {
		sf, err := topo.NewSlimFly(q, topo.RoundDown)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 300; seed++ {
			p, err := WorstCase(sf, rand.New(rand.NewSource(seed)))
			if err == nil {
				err = p.Validate()
			}
			if err != nil {
				t.Errorf("SF(q=%d) seed %d: %v", q, seed, err)
			}
		}
	}
}

func TestOpenLoopRate(t *testing.T) {
	w := &OpenLoop{Pattern: Uniform{N: 100}, Load: 0.5, PacketFlits: 4}
	rng := rand.New(rand.NewSource(9))
	n := 0
	trials := 200000
	for i := 0; i < trials; i++ {
		if _, ok := w.NextPacket(0, int64(i), rng); ok {
			n++
		}
	}
	rate := float64(n) / float64(trials)
	if rate < 0.115 || rate > 0.135 {
		t.Errorf("injection rate %.4f, want ~0.125 (= load/flits)", rate)
	}
	if w.Done() {
		t.Error("open loop reported done")
	}
}

func TestExchangeSequentialOrder(t *testing.T) {
	msgs := [][]Message{
		{{Dst: 1, Packets: 2}, {Dst: 2, Packets: 1}},
		{},
		{},
	}
	e := NewExchange("test", msgs, false)
	if e.TotalPackets() != 3 {
		t.Fatalf("TotalPackets = %d", e.TotalPackets())
	}
	var got []int
	for {
		d, ok := e.NextPacket(0, 0, nil)
		if !ok {
			break
		}
		got = append(got, d)
	}
	want := []int{1, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("drained %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequential order %v, want %v", got, want)
		}
	}
	if !e.Done() {
		t.Error("exchange not done after drain")
	}
}

func TestExchangeInterleavedOrder(t *testing.T) {
	msgs := [][]Message{
		{{Dst: 1, Packets: 2}, {Dst: 2, Packets: 2}},
	}
	e := NewExchange("test", msgs, true)
	var got []int
	for {
		d, ok := e.NextPacket(0, 0, nil)
		if !ok {
			break
		}
		got = append(got, d)
	}
	want := []int{1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved order %v, want %v", got, want)
		}
	}
}

func TestAllToAll(t *testing.T) {
	e := AllToAll(5, 3, nil)
	if e.TotalPackets() != 5*4*3 {
		t.Fatalf("TotalPackets = %d, want 60", e.TotalPackets())
	}
	// First destination of node 2 must be node 3 (shifted order).
	d, ok := e.NextPacket(2, 0, nil)
	if !ok || d != 3 {
		t.Errorf("first A2A destination of node 2 = %d, want 3", d)
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := Torus3D{X: 3, Y: 4, Z: 5}
	for r := 0; r < tor.Volume(); r++ {
		x, y, z := tor.Coords(r)
		if tor.Rank(x, y, z) != r {
			t.Fatalf("coords round trip failed at %d", r)
		}
	}
}

func TestTorusNeighbors(t *testing.T) {
	tor := Torus3D{X: 3, Y: 3, Z: 3}
	nb := tor.Neighbors(tor.Rank(0, 0, 0))
	if len(nb) != 6 {
		t.Fatalf("neighbors = %d, want 6", len(nb))
	}
	wantSet := map[int]bool{
		tor.Rank(1, 0, 0): true, tor.Rank(2, 0, 0): true,
		tor.Rank(0, 1, 0): true, tor.Rank(0, 2, 0): true,
		tor.Rank(0, 0, 1): true, tor.Rank(0, 0, 2): true,
	}
	for _, n := range nb {
		if !wantSet[n] {
			t.Errorf("unexpected neighbor %d", n)
		}
	}
}

// TestFitTorus3DPaperDims reproduces the torus dimensions of Section
// 4.4 for each evaluation configuration.
func TestFitTorus3DPaperDims(t *testing.T) {
	cases := []struct {
		n       int
		x, y, z int
	}{
		{3042, 13, 13, 18}, // SF p=9
		{3380, 13, 13, 20}, // SF p=10
		{3600, 15, 15, 16}, // MLFM (paper writes 15x16x15)
		{3192, 12, 14, 19}, // OFT
	}
	for _, c := range cases {
		tor, err := FitTorus3D(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if tor.X != c.x || tor.Y != c.y || tor.Z != c.z {
			t.Errorf("FitTorus3D(%d) = %dx%dx%d, want %dx%dx%d", c.n, tor.X, tor.Y, tor.Z, c.x, c.y, c.z)
		}
		if tor.Volume() != c.n {
			t.Errorf("volume %d != %d", tor.Volume(), c.n)
		}
	}
	if _, err := FitTorus3D(0); err == nil {
		t.Error("FitTorus3D(0) accepted")
	}
}

func TestNearestNeighborExchange(t *testing.T) {
	tor := Torus3D{X: 3, Y: 3, Z: 2}
	ex, err := NearestNeighbor(tor, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 18 ranks x 6 neighbors x 2 packets, but Z has size 2 so +z and
	// -z coincide... they are distinct messages to the same rank and
	// both kept.
	if ex.TotalPackets() != 18*6*2 {
		t.Errorf("TotalPackets = %d, want %d", ex.TotalPackets(), 18*6*2)
	}
	if _, err := NearestNeighbor(Torus3D{X: 10, Y: 10, Z: 10}, 20, 1); err == nil {
		t.Error("oversized torus accepted")
	}
}

// Property: FitTorus3D always returns an exact factorization in
// nondecreasing order.
func TestQuickFitTorus(t *testing.T) {
	prop := func(raw uint16) bool {
		n := int(raw)%5000 + 1
		tor, err := FitTorus3D(n)
		if err != nil {
			return false
		}
		return tor.Volume() == n && tor.X <= tor.Y && tor.Y <= tor.Z
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
