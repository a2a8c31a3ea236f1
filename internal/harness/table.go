package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"diam2/internal/plot"
)

// Table is the renderable output of an experiment generator: the rows
// a paper figure or table plots.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Charts optionally carries the figure's curves (throughput- and
	// latency-versus-load) for graphical rendering; generators with a
	// natural x-axis fill it.
	Charts []*plot.Chart
	// Curves carries the typed runs a swept figure's rows and charts
	// were rendered from; other tables leave it nil.
	Curves []Curve
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }

// RenderCSV writes the table as CSV (header row first).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// Markdown returns the table as a markdown section: a "###" heading
// and a pipe table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	return b.String()
}

// WriteFile creates path and writes it through render, reporting the
// close error of a file it wrote in full.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeIn writes dir/name through render, creating dir, and returns
// the path; an empty dir (a CLI's unset output-directory flag) writes
// nothing.
func writeIn(dir, name string, render func(io.Writer) error) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, WriteFile(path, render)
}

// WriteCSV writes the table as dir/name.csv (see writeIn).
func (t *Table) WriteCSV(dir, name string) error {
	_, err := writeIn(dir, name+".csv", t.RenderCSV)
	return err
}

// WriteCharts writes chart i of the table as dir/prefix_i.svg (see
// writeIn) and returns the paths written, in chart order.
func (t *Table) WriteCharts(dir, prefix string) ([]string, error) {
	var paths []string
	for i, ch := range t.Charts {
		path, err := writeIn(dir, fmt.Sprintf("%s_%d.svg", prefix, i), func(w io.Writer) error { return ch.RenderSVG(w, 640, 420) })
		if err != nil || path == "" {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
