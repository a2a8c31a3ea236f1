package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"diam2/internal/topo"
)

// point is a 2-D canvas position.
type point struct{ X, Y float64 }

// DrawTopologySVG writes an SVG diagram of the topology's router graph
// in the style of the paper's Fig. 1: the Slim Fly's two router
// subgraphs, the MLFM's stacked layers under their global-router row,
// and the OFT's three levels. Unknown topologies fall back to a
// circular layout.
func DrawTopologySVG(w io.Writer, tp topo.Topology, width, height int) error {
	if width < 120 || height < 120 {
		return fmt.Errorf("plot: topology canvas %dx%d too small", width, height)
	}
	pos := layout(tp, float64(width), float64(height))
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n",
		width/2, xmlEscape(tp.Name()))
	// Links first (underneath).
	for _, e := range tp.Graph().Edges() {
		p1, p2 := pos[e[0]], pos[e[1]]
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#888" stroke-width="0.6" stroke-opacity="0.45"/>`+"\n",
			p1.X, p1.Y, p2.X, p2.Y)
	}
	// Routers: endpoint-attached ones filled, intermediates hollow.
	for r, p := range pos {
		if len(tp.RouterNodes(r)) > 0 {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.2" fill="#1f77b4"/>`+"\n", p.X, p.Y)
		} else {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.2" fill="white" stroke="#d62728" stroke-width="1.2"/>`+"\n", p.X, p.Y)
		}
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// layout picks router positions per topology family.
func layout(tp topo.Topology, w, h float64) []point {
	switch t := tp.(type) {
	case *topo.SlimFly:
		return slimFlyLayout(t, w, h)
	case *topo.MLFM:
		return mlfmLayout(t.H, w, h)
	case *topo.OFT:
		return oftLayout(t, w, h)
	default:
		return circleLayout(tp.Graph().N(), w, h)
	}
}

// circleLayout places all routers on one circle.
func circleLayout(n int, w, h float64) []point {
	pos := make([]point, n)
	cx, cy := w/2, h/2+10
	r := math.Min(w, h)/2 - 40
	for i := range pos {
		a := 2 * math.Pi * float64(i) / float64(n)
		pos[i] = point{cx + r*math.Cos(a), cy + r*math.Sin(a)}
	}
	return pos
}

// slimFlyLayout draws the two q x q subgraphs side by side (Fig. 1a).
func slimFlyLayout(sf *topo.SlimFly, w, h float64) []point {
	pos := make([]point, sf.Graph().N())
	q := float64(sf.Q)
	blockW := (w - 60) / 2
	blockH := h - 80
	for id := range pos {
		s, col, row := sf.RouterCoords(id)
		x0 := 20.0
		if s == 1 {
			x0 = 40 + blockW
		}
		pos[id] = point{
			X: x0 + (float64(col)+0.5)*blockW/q,
			Y: 50 + (float64(row)+0.5)*blockH/q,
		}
	}
	return pos
}

// mlfmLayout stacks the hParam LR layers as rows with the GR row on
// top (Fig. 1b).
func mlfmLayout(hParam int, w, h float64) []point {
	cols := hParam + 1
	lrs := hParam * cols
	grs := hParam * (hParam + 1) / 2
	pos := make([]point, lrs+grs)
	rowH := (h - 80) / float64(hParam+1)
	for l := 0; l < hParam; l++ {
		for i := 0; i < cols; i++ {
			pos[l*cols+i] = point{
				X: 30 + (float64(i)+0.5)*(w-60)/float64(cols),
				Y: 50 + rowH*float64(l+1),
			}
		}
	}
	for g := 0; g < grs; g++ {
		pos[lrs+g] = point{
			X: 30 + (float64(g)+0.5)*(w-60)/float64(grs),
			Y: 50,
		}
	}
	return pos
}

// oftLayout stacks L0 (bottom), L1 (middle), L2 (top) (Fig. 1c).
func oftLayout(o *topo.OFT, w, h float64) []point {
	pos := make([]point, o.Graph().N())
	rowY := []float64{h - 40, h / 2, 50} // L0, L1, L2 by level index
	place := func(id, idx, count int, level int) {
		pos[id] = point{
			X: 30 + (float64(idx)+0.5)*(w-60)/float64(count),
			Y: rowY[level],
		}
	}
	for i := 0; i < o.RL; i++ {
		place(o.L0Router(i), i, o.RL, 0)
		place(o.L1Router(i), i, o.RL, 1)
		place(o.L2Router(i), i, o.RL, 2)
	}
	return pos
}
