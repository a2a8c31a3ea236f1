package topo

import (
	"fmt"
	"testing"

	"diam2/internal/graph"
)

func TestMLFMConstruction(t *testing.T) {
	for _, h := range []int{2, 3, 6, 15} {
		m, err := NewMLFM(h)
		if err != nil {
			t.Fatalf("NewMLFM(%d): %v", h, err)
		}
		if err := VerifyDiameter(m, 2); err != nil {
			t.Errorf("h=%d: %v", h, err)
		}
		g := m.Graph()
		// LR degree = h (network), GR degree = 2h.
		for _, lr := range m.EndpointRouters() {
			if g.Degree(lr) != h {
				t.Fatalf("h=%d: LR %d degree %d, want %d", h, lr, g.Degree(lr), h)
			}
			if len(m.RouterNodes(lr)) != h {
				t.Fatalf("h=%d: LR %d has %d nodes, want %d", h, lr, len(m.RouterNodes(lr)), h)
			}
		}
		for r := m.Stacked.LowerRouters(); r < g.N(); r++ {
			if g.Degree(r) != 2*h {
				t.Fatalf("h=%d: GR %d degree %d, want %d", h, r, g.Degree(r), 2*h)
			}
			if len(m.RouterNodes(r)) != 0 {
				t.Fatalf("h=%d: GR %d has nodes", h, r)
			}
		}
		if m.Radix() != 2*h {
			t.Errorf("h=%d: radix %d, want %d", h, m.Radix(), 2*h)
		}
	}
	if _, err := NewMLFM(1); err == nil {
		t.Error("NewMLFM(1) accepted")
	}
}

func TestMLFMPaperConfig(t *testing.T) {
	m, err := NewMLFM(15)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 3600 || m.Graph().N() != 360 || m.Radix() != 30 {
		t.Errorf("MLFM(15): N=%d R=%d r=%d, want 3600/360/30", m.Nodes(), m.Graph().N(), m.Radix())
	}
	c := CostOf(m)
	if c.PortsPerNode != 3 || c.LinksPerNode != 2 {
		t.Errorf("MLFM cost = %v ports, %v links per node, want 3/2", c.PortsPerNode, c.LinksPerNode)
	}
}

// TestMLFMGlobalRouterWiring checks the defining MLFM property: the GR
// of pair {a,b} connects to LRs a and b of every layer.
func TestMLFMGlobalRouterWiring(t *testing.T) {
	h := 4
	m, _ := NewMLFM(h)
	g := m.Graph()
	for a := 0; a <= h; a++ {
		for b := a + 1; b <= h; b++ {
			gr := m.GlobalRouter(a, b)
			for layer := 0; layer < h; layer++ {
				if !g.HasEdge(gr, m.LocalRouter(layer, a)) {
					t.Fatalf("GR{%d,%d} not connected to LR(%d,%d)", a, b, layer, a)
				}
				if !g.HasEdge(gr, m.LocalRouter(layer, b)) {
					t.Fatalf("GR{%d,%d} not connected to LR(%d,%d)", a, b, layer, b)
				}
			}
			if g.Degree(gr) != 2*h {
				t.Fatalf("GR{%d,%d} degree %d", a, b, g.Degree(gr))
			}
		}
	}
}

// TestMLFMPathDiversity checks Section 2.3.3: same-column LR pairs
// have h minimal paths; all other LR pairs exactly one.
func TestMLFMPathDiversity(t *testing.T) {
	h := 5
	m, _ := NewMLFM(h)
	g := m.Graph()
	for _, u := range m.EndpointRouters() {
		for _, v := range m.EndpointRouters() {
			if u == v {
				continue
			}
			paths := len(g.CommonNeighbors(u, v))
			if m.Column(u) == m.Column(v) {
				if paths != h {
					t.Fatalf("same-column LRs %d,%d have %d paths, want %d", u, v, paths, h)
				}
			} else if paths != 1 {
				t.Fatalf("cross-column LRs %d,%d have %d paths, want 1", u, v, paths)
			}
		}
	}
}

func TestMLFMLayerColumn(t *testing.T) {
	m, _ := NewMLFM(3)
	if m.Layer(m.LocalRouter(2, 1)) != 2 || m.Column(m.LocalRouter(2, 1)) != 1 {
		t.Error("Layer/Column of LR(2,1) wrong")
	}
	gr := m.GlobalRouter(0, 1)
	if m.Layer(gr) != -1 || m.Column(gr) != -1 {
		t.Error("GR should report layer/column -1")
	}
	if m.WorstCaseShift() != 3 {
		t.Errorf("WorstCaseShift = %d", m.WorstCaseShift())
	}
}

func TestOFTConstruction(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6, 12} {
		o, err := NewOFT(k)
		if err != nil {
			t.Fatalf("NewOFT(%d): %v", k, err)
		}
		if err := VerifyDiameter(o, 2); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		g := o.Graph()
		for _, r := range o.EndpointRouters() {
			if g.Degree(r) != k {
				t.Fatalf("k=%d: endpoint router %d degree %d, want %d", k, r, g.Degree(r), k)
			}
			if len(o.RouterNodes(r)) != k {
				t.Fatalf("k=%d: endpoint router %d nodes %d, want %d", k, r, len(o.RouterNodes(r)), k)
			}
		}
		for j := 0; j < o.RL; j++ {
			l1 := o.L1Router(j)
			if g.Degree(l1) != 2*k {
				t.Fatalf("k=%d: L1 router %d degree %d, want %d", k, j, g.Degree(l1), 2*k)
			}
		}
	}
	for _, k := range []int{1, 5, 10} {
		if _, err := NewOFT(k); err == nil {
			t.Errorf("NewOFT(%d) accepted", k)
		}
	}
}

func TestOFTPaperConfig(t *testing.T) {
	o, err := NewOFT(12)
	if err != nil {
		t.Fatal(err)
	}
	if o.Nodes() != 3192 || o.Graph().N() != 399 || o.Radix() != 24 {
		t.Errorf("OFT(12): N=%d R=%d r=%d, want 3192/399/24", o.Nodes(), o.Graph().N(), o.Radix())
	}
	c := CostOf(o)
	if c.PortsPerNode != 3 || c.LinksPerNode != 2 {
		t.Errorf("OFT cost = %v/%v, want 3/2", c.PortsPerNode, c.LinksPerNode)
	}
}

// TestOFTPathDiversity checks Section 2.3.3: symmetric counterpart
// pairs (0,i)/(2,i) have k minimal paths (they connect to the same L1
// routers); every other endpoint-router pair has exactly one.
func TestOFTPathDiversity(t *testing.T) {
	k := 4
	o, _ := NewOFT(k)
	g := o.Graph()
	for _, u := range o.EndpointRouters() {
		for _, v := range o.EndpointRouters() {
			if u == v {
				continue
			}
			paths := len(g.CommonNeighbors(u, v))
			if o.Counterpart(u) == v {
				if paths != k {
					t.Fatalf("counterparts %d,%d have %d paths, want %d", u, v, paths, k)
				}
			} else if paths != 1 {
				t.Fatalf("routers %d,%d have %d paths, want 1", u, v, paths)
			}
		}
	}
}

func TestOFTLevelsAndCounterpart(t *testing.T) {
	o, _ := NewOFT(3)
	if o.Level(o.L0Router(2)) != 0 || o.Level(o.L2Router(2)) != 2 || o.Level(o.L1Router(0)) != 1 {
		t.Error("Level() misassigns layers")
	}
	if o.Counterpart(o.L0Router(4)) != o.L2Router(4) {
		t.Error("Counterpart(L0) wrong")
	}
	if o.Counterpart(o.L2Router(4)) != o.L0Router(4) {
		t.Error("Counterpart(L2) wrong")
	}
	l1 := o.L1Router(1)
	if o.Counterpart(l1) != l1 {
		t.Error("Counterpart(L1) should be identity")
	}
	if o.WorstCaseShift() != 3 {
		t.Errorf("WorstCaseShift = %d", o.WorstCaseShift())
	}
}

func TestHyperX(t *testing.T) {
	h, err := NewHyperX2D(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDiameter(h, 2); err != nil {
		t.Error(err)
	}
	g := h.Graph()
	if g.N() != 16 || h.Nodes() != 48 {
		t.Errorf("HyperX(4,3): R=%d N=%d", g.N(), h.Nodes())
	}
	for r := 0; r < g.N(); r++ {
		if g.Degree(r) != 2*(4-1) {
			t.Fatalf("router %d degree %d, want 6", r, g.Degree(r))
		}
	}
	b, err := NewBalancedHyperX2D(9)
	if err != nil {
		t.Fatal(err)
	}
	if b.S != 4 || b.P != 3 {
		t.Errorf("balanced r=9: s=%d p=%d, want 4/3", b.S, b.P)
	}
	if b.Radix() != 9 {
		t.Errorf("balanced radix = %d, want 9", b.Radix())
	}
	if _, err := NewBalancedHyperX2D(10); err == nil {
		t.Error("radix not divisible by 3 accepted")
	}
	if _, err := NewHyperX2D(1, 1); err == nil {
		t.Error("s=1 accepted")
	}
}

func TestFatTree2(t *testing.T) {
	ft, err := NewFatTree2(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDiameter(ft, 2); err != nil {
		t.Error(err)
	}
	if ft.Nodes() != 32 || ft.Graph().N() != 12 {
		t.Errorf("FT2(8): N=%d R=%d, want 32/12", ft.Nodes(), ft.Graph().N())
	}
	c := CostOf(ft)
	if c.PortsPerNode != 3 || c.LinksPerNode != 2 {
		t.Errorf("FT2 cost %v/%v, want 3/2", c.PortsPerNode, c.LinksPerNode)
	}
	if !ft.Spine(8) || ft.Spine(7) {
		t.Error("Spine misclassifies")
	}
	if _, err := NewFatTree2(7); err == nil {
		t.Error("odd radix accepted")
	}
}

func TestFatTree3(t *testing.T) {
	ft, err := NewFatTree3(4)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Nodes() != 16 || ft.Graph().N() != 20 {
		t.Errorf("FT3(4): N=%d R=%d, want 16/20", ft.Nodes(), ft.Graph().N())
	}
	if err := VerifyDiameter(ft, 4); err != nil {
		t.Error(err)
	}
	c := CostOf(ft)
	if c.PortsPerNode != 5 || c.LinksPerNode != 3 {
		t.Errorf("FT3 cost %v/%v, want 5/3", c.PortsPerNode, c.LinksPerNode)
	}
	if ft.Level(0) != 0 || ft.Level(8) != 1 || ft.Level(16) != 2 {
		t.Error("FT3 Level misassigns")
	}
	if _, err := NewFatTree3(5); err == nil {
		t.Error("odd radix accepted")
	}
}

func TestScalingTable(t *testing.T) {
	rows := ScalingTable(64)
	byFam := map[string]ScalingEntry{}
	for _, r := range rows {
		byFam[r.Family] = r
	}
	// Section 2.3.1: radix-64 routers -> OFT ~63.5K nodes, MLFM ~34K,
	// SF ~33-35K; OFT roughly double the others.
	oft := byFam["OFT"]
	if oft.Param != 32 || oft.Nodes != 63552 {
		t.Errorf("OFT @64 = k=%d N=%d, want 32/63552", oft.Param, oft.Nodes)
	}
	mlfm := byFam["MLFM"]
	if mlfm.Param != 32 || mlfm.Nodes != 33792 {
		t.Errorf("MLFM @64 = h=%d N=%d, want 32/33792", mlfm.Param, mlfm.Nodes)
	}
	sf := byFam["SlimFly(ceil)"]
	if sf.Nodes < 30000 || sf.Nodes > 40000 {
		t.Errorf("SF @64 N=%d, want ~33-36K", sf.Nodes)
	}
	if oft.Nodes < 2*mlfm.Nodes*9/10 {
		t.Errorf("OFT (%d) should be ~2x MLFM (%d)", oft.Nodes, mlfm.Nodes)
	}
	ft2 := byFam["FatTree2"]
	if ft2.Nodes != 64*64/2 {
		t.Errorf("FT2 @64 N=%d", ft2.Nodes)
	}
	ft3 := byFam["FatTree3"]
	if ft3.Nodes != 64*64*64/4 {
		t.Errorf("FT3 @64 N=%d", ft3.Nodes)
	}
	// FT3 diameter 4, all diameter-two families 2.
	if ft3.Diameter != 4 || oft.Diameter != 2 || sf.Diameter != 2 {
		t.Error("diameters wrong in scaling table")
	}
}

// TestScalingMatchesConstruction cross-checks every row of the
// analytic table against a built instance: its size, its radix, and
// CostOf's ports and links per end-node. The Dragonfly rows are checked
// against balancedDragonfly, also at radices 3 and 7 (h = 1, 2).
func TestScalingMatchesConstruction(t *testing.T) {
	for _, r := range []int{3, 7, 12, 13, 24, 32} {
		for _, row := range ScalingTable(r) {
			var tp Topology
			var err error
			switch {
			case r < 12 && row.Family != "Dragonfly":
				continue
			case row.Family == "HyperX":
				tp, err = NewHyperX2D(row.Param, r-2*(row.Param-1))
			case row.Family == "SlimFly(floor)":
				tp, err = NewSlimFly(row.Param, RoundDown)
			case row.Family == "SlimFly(ceil)":
				tp, err = NewSlimFly(row.Param, RoundUp)
			case row.Family == "FatTree2":
				tp, err = NewFatTree2(row.Param)
			case row.Family == "FatTree3":
				tp, err = NewFatTree3(row.Param)
			case row.Family == "MLFM":
				tp, err = NewMLFM(row.Param)
			case row.Family == "OFT":
				tp, err = NewOFT(row.Param)
			case row.Family == "Dragonfly":
				tp, err = balancedDragonfly(row.Param)
			default:
				t.Fatalf("r=%d: unknown family %q", r, row.Family)
			}
			if err != nil {
				t.Fatalf("r=%d %s(%d): %v", r, row.Family, row.Param, err)
			}
			c := CostOf(tp)
			if c.Nodes != row.Nodes {
				t.Errorf("r=%d %s: table N = %d, built %d", r, row.Family, row.Nodes, c.Nodes)
			}
			if tp.Radix() > r {
				t.Errorf("r=%d %s: built radix %d", r, row.Family, tp.Radix())
			}
			if c.PortsPerNode != row.PortsPerNode || c.LinksPerNode != row.LinksPerNode {
				t.Errorf("r=%d %s: table ports/N, links/N = %.4f, %.4f; built %.4f, %.4f",
					r, row.Family, row.PortsPerNode, row.LinksPerNode, c.PortsPerNode, c.LinksPerNode)
			}
		}
	}
}

// balancedDragonfly wires a balanced Dragonfly by hand: g = a*h+1
// groups of a = 2h fully connected routers, each router with p = h
// end-nodes and h global links, every two groups joined by one global
// link. It checks the result has diameter 3.
func balancedDragonfly(h int) (Topology, error) {
	a := 2 * h
	groups := a*h + 1
	g := graph.New(a * groups)
	nodesAt := map[int]int{}
	for gi := 0; gi < groups; gi++ {
		for i := 0; i < a; i++ {
			nodesAt[gi*a+i] = h
			for j := i + 1; j < a; j++ {
				g.MustAddEdge(gi*a+i, gi*a+j)
			}
		}
		// Global link t of group gi goes to group gi+t+1 (mod groups)
		// and leaves from router t/h.
		for gj := gi + 1; gj < groups; gj++ {
			ti, tj := gj-gi-1, groups+gi-gj-1
			g.MustAddEdge(gi*a+ti/h, gj*a+tj/h)
		}
	}
	df, err := NewCustom(fmt.Sprintf("Dragonfly(h=%d)", h), g, nodesAt)
	if err != nil {
		return nil, err
	}
	return df, VerifyDiameter(df, 3)
}
