// Command diam2report regenerates the full reproduction in one shot
// and writes a self-contained markdown report: construction and cost
// tables, analytic (fluid-model) saturations, bisection estimates,
// path diversity, and — unless -fast is set — the simulated figure
// tables at the chosen scale, with SVG charts alongside.
//
// Usage:
//
//	diam2report -o REPORT.md                 # quick scale, ~2 min
//	diam2report -o REPORT.md -scale medium   # the EXPERIMENTS.md scale
//	diam2report -o REPORT.md -fast           # analysis only, seconds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diam2/internal/cliflags"
	"diam2/internal/harness"
	"diam2/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run writes the report args ask for and returns the exit status
// (cliflags.Parse, Status).
func run(args []string, stdout, stderr io.Writer) int {
	var (
		scale cliflags.Scale
		st    cliflags.Store
	)
	fs := flag.NewFlagSet("diam2report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "REPORT.md", "output markdown file")
	fast := fs.Bool("fast", false, "analysis only (skip simulations)")
	plotDir := fs.String("plotdir", "", "write SVG charts into this directory")
	scale.Register(fs)
	st.Register(fs)
	if status, ok := cliflags.Parse(fs, args, stdout); !ok {
		return status
	}
	return cliflags.Status(fs, report(fs, *out, *fast, *plotDir, scale, st, stdout))
}

// report writes the report to out and notes it on stdout.
func report(fs *flag.FlagSet, out string, fast bool, plotDir string, scale cliflags.Scale, st cliflags.Store, stdout io.Writer) error {
	sc, presets, err := scale.Resolve()
	if err != nil {
		return err
	}
	closeStore, err := st.Attach(fs, &sc, false)
	if err != nil {
		return err
	}
	defer closeStore()

	var b strings.Builder
	md := func(t *harness.Table) { b.WriteString(t.Markdown()) }
	b.WriteString("# diam2 reproduction report\n\n")
	fmt.Fprintf(&b, "Scale: **%s**; seed %d. Generated by `diam2report`.\n\n", sc.Label, scale.Seed)

	// Analysis sections (always present).
	b.WriteString("## Construction and cost (Fig. 3)\n\n")
	summary := &harness.Table{
		Title:  "Paper configurations (Section 4.1)",
		Header: []string{"topology", "N", "R", "radix", "ports/N", "links/N"},
	}
	for _, p := range harness.PaperPresets() {
		tp, err := p.Build()
		if err != nil {
			return err
		}
		c := topo.CostOf(tp)
		summary.AddRow(p.Name, fmt.Sprint(c.Nodes), fmt.Sprint(c.Routers), fmt.Sprint(tp.Radix()),
			fmt.Sprintf("%.2f", c.PortsPerNode), fmt.Sprintf("%.2f", c.LinksPerNode))
	}
	md(summary)
	md(harness.Fig3Scalability([]int{24, 32, 48, 64}))

	b.WriteString("## Analytic saturation (fluid model)\n\n")
	fluidTab, err := harness.FluidSaturationTable(harness.PaperPresets(), scale.Seed)
	if err != nil {
		return err
	}
	md(fluidTab)

	b.WriteString("## Bisection bandwidth (Fig. 4)\n\n")
	bis, err := harness.Fig4Bisection(harness.PaperPresets(), 12, 40, scale.Seed)
	if err != nil {
		return err
	}
	md(bis)

	b.WriteString("## Path diversity (Section 2.3.3)\n\n")
	for _, p := range harness.PaperPresets() {
		tp, err := p.Build()
		if err != nil {
			return err
		}
		md(harness.DiversityReport(tp))
	}

	if !fast {
		b.WriteString("## Simulated figures\n\n")
		loads := []float64{0.1, 0.5, 0.9, 1.0}
		charts := 0
		for _, pat := range []harness.PatternKind{harness.PatUNI, harness.PatWC} {
			t, err := harness.Fig6Oblivious(presets, pat, loads, sc)
			if err != nil {
				return err
			}
			md(t)
			svgs, err := t.WriteCharts(plotDir, "fig6"+pat.String())
			if err != nil {
				return err
			}
			charts += len(svgs)
		}
		for _, kind := range []harness.ExchangeKind{harness.ExA2A, harness.ExNN} {
			t, err := harness.FigExchange(presets, kind, sc)
			if err != nil {
				return err
			}
			md(t)
		}
		if charts > 0 {
			fmt.Fprintf(&b, "%d SVG charts written to %s.\n\n", charts, plotDir)
		}

		// Screening-tier calibration: the fluid model's saturation
		// estimates against the simulator's delivered plateau for the
		// nine golden scenarios, with the recorded tolerances the CI
		// gate enforces.
		b.WriteString("## Screening tier: fluid predictions vs. simulator\n\n")
		b.WriteString("Relative disagreement between the analytic saturation estimate and the " +
			"simulator's delivered-throughput plateau at full offered load, per golden " +
			"calibration scenario (family x pattern x routing). `within` means the " +
			"disagreement stays inside the recorded tolerance the screening tier " +
			"promises (see EXPERIMENTS.md, \"Screening tier\").\n\n")
		cals, err := harness.Calibrate(presets, sc)
		if err != nil {
			return err
		}
		md(harness.CalibrationTable(cals))

		// Congestion heatmaps: the telemetry layer's per-link counters
		// under the adversarial pattern, where the single-minimal-path
		// bottleneck concentrates traffic on few links (Section 4.2).
		b.WriteString("## Congestion heatmaps (worst-case traffic, MIN routing)\n\n")
		b.WriteString("Hottest directed links per topology at full offered load; " +
			"load is flits carried per cycle (1.0 = saturated).\n\n")
		for _, p := range presets {
			tp, err := p.Build()
			if err != nil {
				return err
			}
			sink := &harness.TelemetrySink{}
			hsc := sc
			hsc.Telemetry = harness.TelemetryPlan{Sink: sink}
			if _, err := harness.RunSynthetic(tp, harness.AlgMIN, p.BestAdaptive, harness.PatWC, 1.0, hsc); err != nil {
				return err
			}
			heat := &harness.Table{
				Title:  fmt.Sprintf("%s: hottest links", p.Name),
				Header: []string{"rank", "link", "flits", "load"},
			}
			for i, l := range sink.Heatmap() {
				if i == 10 {
					break
				}
				heat.AddRow(fmt.Sprint(i+1), fmt.Sprintf("%d -> %d", l.From, l.To),
					fmt.Sprint(l.Flits), fmt.Sprintf("%.3f", l.Load))
			}
			md(heat)
		}
	}

	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", out, b.Len())
	return nil
}
