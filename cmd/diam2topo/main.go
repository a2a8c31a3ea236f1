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

var (
	summary   = flag.Bool("summary", false, "construction summary of the paper configurations")
	scaling   = flag.Bool("scaling", false, "Fig. 3 scalability/cost table")
	bisection = flag.Bool("bisection", false, "Fig. 4 bisection-bandwidth estimates")
	ml3b      = flag.Int("ml3b", 0, "Table 2: print the k-ML3B for this k")
	diversity = flag.Bool("diversity", false, "Sec. 2.3.3 path-diversity statistics")
	lambda2   = flag.Bool("lambda2", false, "spectral lambda estimates (bisection lower bounds)")
	restarts  = flag.Int("restarts", 12, "bisection restarts")
	passes    = flag.Int("passes", 40, "bisection refinement passes")
	seed      = flag.Int64("seed", 42, "random seed")
	exportDOT = flag.String("dot", "", "write the named paper topology (sf9|sf10|mlfm|oft) as Graphviz DOT to stdout")
	exportEL  = flag.String("edgelist", "", "write the named paper topology as an edge list to stdout")
	fluidSat  = flag.Bool("fluid", false, "analytic (fluid-model) saturation loads for the paper configurations")
	draw      = flag.String("draw", "", "write a Fig. 1-style SVG diagram of the named topology (sf9|sf10|mlfm|oft) to stdout")
)

func main() {
	cliflags.Parse("diam2topo", os.Args[1:])
	if !*summary && !*scaling && !*bisection && *ml3b == 0 && !*diversity && !*lambda2 && !*fluidSat && *exportDOT == "" && *exportEL == "" && *draw == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diam2topo:", err)
		os.Exit(1)
	}
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

// run prints the selected analyses to w.
func run(w io.Writer) error {
	if *draw != "" {
		tp, err := namedTopo(*draw)
		if err != nil {
			return err
		}
		return plot.DrawTopologySVG(w, tp, 800, 600)
	}
	if *exportDOT != "" || *exportEL != "" {
		return export(w, *exportDOT, *exportEL)
	}
	// Each analysis prints its table as soon as it is computed.
	emit := func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		return t.Render(w)
	}
	if *fluidSat {
		if err := emit(harness.FluidSaturationTable(harness.PaperPresets(), *seed)); err != nil {
			return err
		}
	}
	if *summary {
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
	if *scaling {
		if err := emit(harness.Fig3Scalability([]int{16, 24, 32, 40, 48, 56, 64}), nil); err != nil {
			return err
		}
	}
	if *bisection {
		if err := emit(harness.Fig4Bisection(harness.PaperPresets(), *restarts, *passes, *seed)); err != nil {
			return err
		}
	}
	if *ml3b > 0 {
		if err := emit(harness.Table2ML3B(*ml3b)); err != nil {
			return err
		}
	}
	if *diversity {
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
	if *lambda2 {
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
			l := partition.SpectralLambda2(g, 300, *seed)
			deg := float64(g.NumEdges()*2) / float64(g.N())
			lower := (deg - l) * float64(g.N()) / 4
			t.AddRow(p.Name, fmt.Sprint(g.N()), fmt.Sprintf("%.1f", deg), fmt.Sprintf("%.2f", l),
				fmt.Sprintf("%.0f", lower), fmt.Sprintf("%.3f", lower/(float64(tp.Nodes())/2)))
		}
		return emit(t, nil)
	}
	return nil
}
