// Package plot renders simple line charts — the throughput- and
// latency-versus-load curves of the paper's figures — as ASCII (for
// terminals) and SVG (for reports), and topology diagrams as SVG, with
// no dependencies outside the module.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one labeled curve.
type Series struct {
	Label string
	X, Y  []float64
}

// Chart is a set of curves over shared axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a series.
func (c *Chart) Add(s Series) { c.Series = append(c.Series, s) }

// bounds computes the data extents with a small headroom.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64, ok bool) {
	first := true
	for _, s := range c.Series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if first {
		return 0, 0, 0, 0, false
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// 5% y-headroom; zero-anchor y when data is non-negative.
	if ymin > 0 {
		ymin = 0
	}
	ymax += (ymax - ymin) * 0.05
	return xmin, xmax, ymin, ymax, true
}

// markers used per series in ASCII mode.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// RenderASCII draws the chart on a width x height character canvas.
func (c *Chart) RenderASCII(w io.Writer, width, height int) error {
	if width < 20 || height < 6 {
		return fmt.Errorf("plot: canvas %dx%d too small", width, height)
	}
	xmin, xmax, ymin, ymax, ok := c.bounds()
	if !ok {
		return fmt.Errorf("plot: no data")
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			px := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			py := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			if px >= 0 && px < width && py >= 0 && py < height {
				grid[py][px] = m
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
		return err
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.3g ", ymax)
		case height - 1:
			label = fmt.Sprintf("%7.3g ", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s|%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "        %-10.3g%s%10.3g\n", xmin,
		strings.Repeat(" ", maxInt(0, width-20)), xmax); err != nil {
		return err
	}
	for si, s := range c.Series {
		if _, err := fmt.Fprintf(w, "  %c %s\n", markers[si%len(markers)], s.Label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  x: %s, y: %s\n", c.XLabel, c.YLabel)
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// palette for SVG series.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
	"#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
}

// RenderSVG writes the chart as a standalone SVG document.
func (c *Chart) RenderSVG(w io.Writer, width, height int) error {
	if width < 100 || height < 80 {
		return fmt.Errorf("plot: SVG canvas %dx%d too small", width, height)
	}
	xmin, xmax, ymin, ymax, ok := c.bounds()
	if !ok {
		return fmt.Errorf("plot: no data")
	}
	const margin = 50
	pw, ph := float64(width-2*margin), float64(height-2*margin)
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*pw }
	py := func(y float64) float64 { return float64(height) - margin - (y-ymin)/(ymax-ymin)*ph }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>`+"\n", width/2, xmlEscape(c.Title))
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, height-margin, width-margin, height-margin)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, margin, margin, height-margin)
	// Ticks (5 per axis).
	for i := 0; i <= 4; i++ {
		xv := xmin + (xmax-xmin)*float64(i)/4
		yv := ymin + (ymax-ymin)*float64(i)/4
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%.3g</text>`+"\n",
			px(xv), height-margin+16, xv)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`+"\n",
			margin-6, py(yv)+3, yv)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n", px(xv), height-margin, px(xv), height-margin+4)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n", margin-4, py(yv), margin, py(yv))
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		width/2, height-10, xmlEscape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
		height/2, height/2, xmlEscape(c.YLabel))
	// Curves.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="%s"/>`+"\n",
				strings.Split(p, ",")[0], strings.Split(p, ",")[1], color)
		}
		// Legend.
		ly := margin + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", width-margin-130, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			width-margin-115, ly+9, xmlEscape(s.Label))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
