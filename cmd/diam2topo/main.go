// Command diam2topo analyzes the diameter-two topologies without
// simulation: construction summaries, the Fig. 3 scalability/cost
// comparison, the Fig. 4 bisection estimates, the Table 2 ML3B
// representation, and the Section 2.3.3 path-diversity statistics.
//
// Usage:
//
//	diam2topo -summary            # construction summary of the paper configs
//	diam2topo -scaling            # Fig. 3 (radix sweep 16..64)
//	diam2topo -bisection          # Fig. 4 estimates (paper configs)
//	diam2topo -ml3b 4             # Table 2 for a given k
//	diam2topo -diversity          # Sec. 2.3.3 diversity stats
//	diam2topo -lambda2            # spectral bisection lower-bound data
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diam2/internal/cliflags"
	"diam2/internal/harness"
	"diam2/internal/partition"
	"diam2/internal/plot"
	"diam2/internal/topo"
)

// options is diam2topo's command line.
type options struct {
	summary, scaling, bisection, diversity, lambda2, fluidSat bool
	ml3b, restarts, passes                                    int
	seed                                                      int64
	exportDOT, exportEL, draw                                 string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run prints the analyses args select and returns the exit status
// (cliflags.Parse, Status; 2 when none is selected).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("diam2topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.summary, "summary", false, "construction summary of the paper configurations")
	fs.BoolVar(&o.scaling, "scaling", false, "Fig. 3 scalability/cost table")
	fs.BoolVar(&o.bisection, "bisection", false, "Fig. 4 bisection-bandwidth estimates")
	fs.IntVar(&o.ml3b, "ml3b", 0, "Table 2: print the k-ML3B for this k")
	fs.BoolVar(&o.diversity, "diversity", false, "Sec. 2.3.3 path-diversity statistics")
	fs.BoolVar(&o.lambda2, "lambda2", false, "spectral lambda estimates (bisection lower bounds)")
	fs.IntVar(&o.restarts, "restarts", 12, "bisection restarts")
	fs.IntVar(&o.passes, "passes", 40, "bisection refinement passes")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.StringVar(&o.exportDOT, "dot", "", "write the named paper topology (sf9|sf10|mlfm|oft) as Graphviz DOT to stdout")
	fs.StringVar(&o.exportEL, "edgelist", "", "write the named paper topology as an edge list to stdout")
	fs.BoolVar(&o.fluidSat, "fluid", false, "analytic (fluid-model) saturation loads for the paper configurations")
	fs.StringVar(&o.draw, "draw", "", "write a Fig. 1-style SVG diagram of the named topology (sf9|sf10|mlfm|oft) to stdout")
	if status, ok := cliflags.Parse(fs, args, stdout, cliflags.NoArgs(fs), func() error { return o.refuse(fs) }); !ok {
		return status
	}
	if !o.selected() {
		fs.Usage()
		return 2
	}
	return cliflags.Status(fs, o.print(stdout))
}

// selected reports whether o selects an analysis; the tuning flags
// -restarts, -passes and -seed select none.
func (o *options) selected() bool {
	return *o != options{restarts: o.restarts, passes: o.passes, seed: o.seed}
}

// refuse returns why the values parsed on fs cannot run, if they
// cannot: the bisection knobs are read by -bisection alone. Tuning
// flags without an analysis get the usage instead.
func (o *options) refuse(fs *flag.FlagSet) error {
	var knob string // -restarts or -passes, if given
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "restarts" || f.Name == "passes" {
			knob = f.Name
		}
	})
	switch {
	case o.ml3b != 0 && o.ml3b < 2: // 0: no Table 2
		return fmt.Errorf("-ml3b %d: the k-ML3B needs k >= 2", o.ml3b)
	case o.restarts <= 0 || o.passes <= 0:
		return fmt.Errorf("-restarts %d -passes %d: bisection needs at least one of each", o.restarts, o.passes)
	case knob != "" && !o.bisection && o.selected():
		return fmt.Errorf("-%s tunes -bisection, which is not selected", knob)
	}
	return nil
}

// namedTopo builds the preset with the given command-line name.
func namedTopo(name string) (topo.Topology, error) {
	p, err := harness.PresetByShort(name)
	if err != nil {
		return nil, err
	}
	return p.Build()
}

// export writes a paper topology in DOT or edge-list form.
func export(w io.Writer, dotName, elName string) error {
	name := dotName
	if name == "" {
		name = elName
	}
	tp, err := namedTopo(name)
	if err != nil {
		return err
	}
	if dotName != "" {
		return topo.WriteDOT(w, tp)
	}
	return topo.WriteEdgeList(w, tp)
}

// print prints the selected analyses to w.
func (o *options) print(w io.Writer) error {
	if o.draw != "" {
		tp, err := namedTopo(o.draw)
		if err != nil {
			return err
		}
		return plot.DrawTopologySVG(w, tp, 800, 600)
	}
	if o.exportDOT != "" || o.exportEL != "" {
		return export(w, o.exportDOT, o.exportEL)
	}
	// Each analysis prints its table as soon as it is computed.
	emit := func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		return t.Render(w)
	}
	if o.fluidSat {
		if err := emit(harness.FluidSaturationTable(harness.PaperPresets(), o.seed)); err != nil {
			return err
		}
	}
	if o.summary {
		t := &harness.Table{
			Title:  "Paper configurations (Section 4.1)",
			Header: []string{"topology", "N", "R", "radix", "ports/N", "links/N", "diam"},
		}
		for _, p := range harness.PaperPresets() {
			tp, err := p.Build()
			if err != nil {
				return err
			}
			c := topo.CostOf(tp)
			if err := topo.VerifyDiameter(tp, 2); err != nil {
				return err
			}
			t.AddRow(p.Name, fmt.Sprint(c.Nodes), fmt.Sprint(c.Routers), fmt.Sprint(tp.Radix()),
				fmt.Sprintf("%.2f", c.PortsPerNode), fmt.Sprintf("%.2f", c.LinksPerNode), "2")
		}
		if err := emit(t, nil); err != nil {
			return err
		}
	}
	if o.scaling {
		if err := emit(harness.Fig3Scalability([]int{16, 24, 32, 40, 48, 56, 64}), nil); err != nil {
			return err
		}
	}
	if o.bisection {
		if err := emit(harness.Fig4Bisection(harness.PaperPresets(), o.restarts, o.passes, o.seed)); err != nil {
			return err
		}
	}
	if o.ml3b > 0 {
		if err := emit(harness.Table2ML3B(o.ml3b)); err != nil {
			return err
		}
	}
	if o.diversity {
		for _, p := range harness.PaperPresets() {
			tp, err := p.Build()
			if err != nil {
				return err
			}
			if err := emit(harness.DiversityReport(tp), nil); err != nil {
				return err
			}
		}
	}
	if o.lambda2 {
		t := &harness.Table{
			Title:  "Spectral lambda (largest adjacency eigenvalue orthogonal to 1) and implied bisection lower bound",
			Header: []string{"topology", "R", "degree", "lambda", "cut lower bound", "per-node lower bound"},
		}
		for _, p := range harness.PaperPresets() {
			tp, err := p.Build()
			if err != nil {
				return err
			}
			g := tp.Graph()
			l := partition.SpectralLambda2(g, 300, o.seed)
			deg := float64(g.NumEdges()*2) / float64(g.N())
			lower := (deg - l) * float64(g.N()) / 4
			t.AddRow(p.Name, fmt.Sprint(g.N()), fmt.Sprintf("%.1f", deg), fmt.Sprintf("%.2f", l),
				fmt.Sprintf("%.0f", lower), fmt.Sprintf("%.3f", lower/(float64(tp.Nodes())/2)))
		}
		return emit(t, nil)
	}
	return nil
}
