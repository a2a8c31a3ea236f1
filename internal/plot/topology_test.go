package plot

import (
	"strings"
	"testing"

	"diam2/internal/graph"
	"diam2/internal/topo"
)

func render(t *testing.T, tp topo.Topology) string {
	t.Helper()
	var b strings.Builder
	if err := DrawTopologySVG(&b, tp, 600, 400); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDrawSlimFly(t *testing.T) {
	sf, err := topo.NewSlimFly(5, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, sf)
	if got := strings.Count(out, "<circle"); got != sf.Graph().N() {
		t.Errorf("circles = %d, want %d routers", got, sf.Graph().N())
	}
	if got := strings.Count(out, "<line"); got != sf.Graph().NumEdges() {
		t.Errorf("lines = %d, want %d links", got, sf.Graph().NumEdges())
	}
	// Direct topology: every router filled (has endpoints).
	if strings.Contains(out, `stroke="#d62728"`) {
		t.Error("SF diagram should have no intermediate (hollow) routers")
	}
}

func TestDrawMLFM(t *testing.T) {
	m, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, m)
	// GRs drawn hollow.
	if got := strings.Count(out, `stroke="#d62728"`); got != 10 {
		t.Errorf("hollow routers = %d, want h(h+1)/2 = 10", got)
	}
	if got := strings.Count(out, "<line"); got != m.Graph().NumEdges() {
		t.Errorf("lines = %d, want %d", got, m.Graph().NumEdges())
	}
}

func TestDrawOFT(t *testing.T) {
	o, err := topo.NewOFT(3)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, o)
	if got := strings.Count(out, `stroke="#d62728"`); got != o.RL {
		t.Errorf("hollow routers = %d, want RL = %d L1 routers", got, o.RL)
	}
}

func TestDrawGeneralAndFallback(t *testing.T) {
	// A user-assembled topology: well-formed SVG, its name escaped.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, (i+1)%4)
	}
	c, err := topo.NewCustom("ring<4>", g, map[int]int{0: 1, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, c)
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "</svg>") || !strings.Contains(out, "ring&lt;4&gt;") {
		t.Error("malformed SVG")
	}
	// Fallback circular layout for a baseline topology.
	ft, err := topo.NewFatTree2(6)
	if err != nil {
		t.Fatal(err)
	}
	out = render(t, ft)
	if got := strings.Count(out, "<circle"); got != ft.Graph().N() {
		t.Errorf("fallback circles = %d, want %d", got, ft.Graph().N())
	}
}

func TestDrawTooSmall(t *testing.T) {
	sf, _ := topo.NewSlimFly(3, topo.RoundDown)
	var b strings.Builder
	if err := DrawTopologySVG(&b, sf, 50, 50); err == nil {
		t.Error("tiny canvas accepted")
	}
}
