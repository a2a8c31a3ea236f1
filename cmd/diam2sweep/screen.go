package main

import (
	"fmt"
	"os"
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
// analytically, print the summary, then (with -escalate-band) pick the
// near-saturation and family-crossover neighborhoods and re-run them
// through the flit-level simulator, scoring each against the recorded
// calibration tolerances. With -screen-check, any escalated point
// outside its recorded tolerance fails the run — the CI smoke gate.
func runScreen(sc harness.Scale, presets []harness.Preset, o screenOpts, csvDir string) error {
	spec := harness.ScreenSpec{}
	if o.grid > 0 {
		spec.Loads = harness.ScreenGridLoads(o.grid)
	}
	start := time.Now()
	points, err := harness.ScreenSweep(presets, spec, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "diam2sweep: screen: %d analytic points in %s\n",
		len(points), time.Since(start).Round(time.Millisecond))
	if err := emitTable(harness.ScreenTable(points), csvDir, "screen"); err != nil {
		return err
	}
	if o.band <= 0 {
		return nil
	}
	picks := harness.SelectEscalations(points, o.band)
	fmt.Fprintf(os.Stderr, "diam2sweep: escalating %d of %d screened points (band=%.2f)\n",
		len(picks), len(points), o.band)
	escs, err := harness.EscalateSweep(picks, presets, sc)
	if err != nil {
		return err
	}
	if err := emitTable(harness.EscalationTable(escs), csvDir, "escalate"); err != nil {
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
		fmt.Fprintf(os.Stderr, "diam2sweep: screen check: all %d escalated points within recorded tolerances\n", len(escs))
	}
	return nil
}

// emitTable renders a screening table to stdout and, with -csvdir, to
// <dir>/<name>.csv.
func emitTable(t *harness.Table, csvDir, name string) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return t.WriteCSV(csvDir, name)
}
