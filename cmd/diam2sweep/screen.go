package main

import (
	"fmt"
	"io"
	"time"

	"diam2/internal/harness"
)

// screenOpts carries the -screen flag group: the analytic screening
// tier and its simulator escalation pass.
type screenOpts struct {
	band  float64 // -escalate-band (0: screen only)
	grid  int     // -screen-grid (0: DefaultLoads ladder)
	check bool    // -screen-check
}

// runScreen drives the screening tier: answer the full grid
// analytically, print the summary table to stdout, then (with
// -escalate-band) pick the points near their predicted saturation and
// re-run them through the flit-level simulator, scoring each against the recorded
// calibration tolerances. With -screen-check, any escalated point
// outside its recorded tolerance fails the run — the CI smoke gate.
func runScreen(sc harness.Scale, presets []harness.Preset, o screenOpts, csvDir string, stdout, stderr io.Writer) error {
	spec := harness.ScreenSpec{}
	if o.grid > 0 {
		spec.Loads = harness.ScreenGridLoads(o.grid)
	}
	start := time.Now()
	scr, err := harness.NewScreener(presets, sc)
	if err != nil {
		return err
	}
	points, err := scr.Sweep(spec, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "diam2sweep: screen: %d analytic points in %s\n",
		len(points), time.Since(start).Round(time.Millisecond))
	if err := emitTable(stdout, harness.ScreenTable(points), csvDir, "screen"); err != nil {
		return err
	}
	if o.band <= 0 {
		return nil
	}
	picks := harness.SelectEscalations(points, o.band)
	fmt.Fprintf(stderr, "diam2sweep: escalating %d of %d screened points (band=%.2f)\n",
		len(picks), len(points), o.band)
	escs, err := scr.Escalate(picks, sc)
	if err != nil {
		return err
	}
	if err := emitTable(stdout, harness.EscalationTable(escs), csvDir, "escalate"); err != nil {
		return err
	}
	if o.check {
		bad := 0
		for _, e := range escs {
			if e.Recorded && !e.Within {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("screen check: %d escalated point(s) outside their recorded calibration tolerance", bad)
		}
		fmt.Fprintf(stderr, "diam2sweep: screen check: all %d escalated points within recorded tolerances\n", len(escs))
	}
	return nil
}

// emitTable renders a screening table to w and, with -csvdir, to
// <dir>/<name>.csv.
func emitTable(w io.Writer, t *harness.Table, csvDir, name string) error {
	if err := t.Render(w); err != nil {
		return err
	}
	return t.WriteCSV(csvDir, name)
}
