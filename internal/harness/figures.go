package harness

import (
	"context"
	"fmt"
	"math/rand"

	"diam2/internal/plot"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// DefaultLoads is the offered-load sweep used by the synthetic
// figures.
func DefaultLoads() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Curve is one swept series of a figure: one routing kind under one
// pattern and UGAL configuration on one topology, with Runs[i] the run
// at X[i]. X is the offered load of a load sweep or the failed-link
// fraction of a resilience sweep; an exchange bar is a one-run curve
// at the exchange's packet count, under no pattern.
type Curve struct {
	Topo    string
	Alg     AlgKind
	Pattern PatternKind
	UGAL    UGALConfig
	X       []float64
	Runs    []sim.Results
}

// collectCurves runs every point of the curves in one Collect — point
// builds the point of curve c at x — and fills each curve's Runs from
// the payloads through results.
func collectCurves[T any](sc Scale, curves []Curve, point func(c *Curve, x float64) Point[T], results func(T) sim.Results) error {
	var points []Point[T]
	for i := range curves {
		for _, x := range curves[i].X {
			points = append(points, point(&curves[i], x))
		}
	}
	out, err := Collect(sc, points)
	if err != nil {
		return err
	}
	for i := range curves {
		c := &curves[i]
		for _, payload := range out[:len(c.X)] {
			c.Runs = append(c.Runs, results(payload))
		}
		out = out[len(c.X):]
	}
	return nil
}

// yAxis is one chart of a swept figure: its title suffix, its y label
// and the value each run plots.
type yAxis struct {
	suffix, label string
	y             func(sim.Results) float64
}

var (
	throughputAxis = yAxis{"", "delivered throughput", func(r sim.Results) float64 { return r.Throughput }}
	latencyAxis    = yAxis{" — latency", "avg latency (cycles)", func(r sim.Results) float64 { return r.AvgLatency }}
)

// curveTable is the one render path of the swept figures: a row per
// run from row(c, i), and per axis a chart over xLabel holding one
// series per curve, named by label. The table carries the curves.
func curveTable(title string, header []string, curves []Curve, row func(c *Curve, i int) []string,
	xLabel string, label func(c *Curve) string, axes ...yAxis) *Table {
	t := &Table{Title: title, Header: header, Curves: curves}
	for _, a := range axes {
		t.Charts = append(t.Charts, &plot.Chart{Title: title + a.suffix, XLabel: xLabel, YLabel: a.label})
	}
	for i := range curves {
		c := &curves[i]
		for j := range c.Runs {
			t.AddRow(row(c, j)...)
		}
		for k, a := range axes {
			s := plot.Series{Label: label(c), X: c.X}
			for _, r := range c.Runs {
				s.Y = append(s.Y, a.y(r))
			}
			t.Charts[k].Add(s)
		}
	}
	return t
}

// Fig6Oblivious regenerates Fig. 6: throughput (and saturation
// points) for oblivious MIN and INR routing under uniform (6a) or
// worst-case (6b) traffic across the given presets.
func Fig6Oblivious(presets []Preset, pat PatternKind, loads []float64, scale Scale) (*Table, error) {
	sub := "6a (uniform)"
	if pat == PatWC {
		sub = "6b (worst case)"
	}
	// Topologies are immutable once built, so one instance per preset
	// is shared by every point of the sweep.
	tps := map[string]topo.Topology{}
	var curves []Curve
	for _, p := range presets {
		tp, err := p.Build()
		if err != nil {
			return nil, err
		}
		tps[p.Name] = tp
		for _, kind := range []AlgKind{AlgMIN, AlgINR} {
			curves = append(curves, Curve{Topo: p.Name, Alg: kind, Pattern: pat, UGAL: p.BestAdaptive, X: loads})
		}
	}
	err := collectCurves(scale, curves, func(c *Curve, load float64) Point[sim.Results] {
		return syntheticPoint(pointKey("fig6", c.Topo, c.Alg, pat, load), tps[c.Topo], c.Alg, c.UGAL, pat, load, scale, whole)
	}, whole)
	if err != nil {
		return nil, err
	}
	return curveTable(fmt.Sprintf("Fig. %s: oblivious routing throughput", sub),
		[]string{"topology", "routing", "load", "throughput", "avg latency (cycles)"}, curves,
		func(c *Curve, i int) []string {
			r := c.Runs[i]
			return []string{c.Topo, c.Alg.String(), f2(c.X[i]), f3(r.Throughput), f1(r.AvgLatency)}
		},
		"offered load", func(c *Curve) string { return c.Topo + " " + c.Alg.String() }, throughputAxis, latencyAxis), nil
}

// AdaptiveSweep regenerates one of Figs. 7-12: an adaptive algorithm
// on one topology, sweeping either nI (with the cost constant fixed)
// or the cost constant (with nI fixed), under uniform and worst-case
// traffic. kind is AlgA for the generic UGAL figures (7, 9, 10) and
// AlgATh for the threshold figures (8, 11, 12).
func AdaptiveSweep(p Preset, kind AlgKind, varyNI []int, varyC []float64, fixedNI int, fixedC float64, loads []float64, scale Scale) (*Table, error) {
	tp, err := p.Build()
	if err != nil {
		return nil, err
	}
	var curves []Curve
	variant := func(ni int, c float64) {
		cfg := p.BestAdaptive
		cfg.NI, *cfg.Cost() = ni, c
		for _, pat := range []PatternKind{PatUNI, PatWC} {
			curves = append(curves, Curve{Topo: p.Name, Alg: kind, Pattern: pat, UGAL: cfg, X: loads})
		}
	}
	for _, ni := range varyNI {
		variant(ni, fixedC)
	}
	for _, c := range varyC {
		variant(fixedNI, c)
	}
	err = collectCurves(scale, curves, func(c *Curve, load float64) Point[sim.Results] {
		key := fmt.Sprintf("adaptive|%s|%s|nI=%d|c=%g|%s|load=%.4f", p.Name, kind, c.UGAL.NI, *c.UGAL.Cost(), c.Pattern, load)
		return syntheticPoint(key, tp, kind, c.UGAL, c.Pattern, load, scale, whole)
	}, whole)
	if err != nil {
		return nil, err
	}
	return curveTable(fmt.Sprintf("Adaptive sweep: %s %s", p.Name, kind),
		[]string{"pattern", "nI", "c", "load", "throughput", "avg latency (cycles)", "indirect frac"}, curves,
		func(c *Curve, i int) []string {
			r := c.Runs[i]
			return []string{c.Pattern.String(), d(c.UGAL.NI), f2(*c.UGAL.Cost()), f2(c.X[i]), f3(r.Throughput), f1(r.AvgLatency), f3(r.IndirectFrac)}
		},
		"offered load", func(c *Curve) string { return fmt.Sprintf("%s nI=%d c=%g", c.Pattern, c.UGAL.NI, *c.UGAL.Cost()) },
		throughputAxis, latencyAxis), nil
}

// BuildExchange constructs the exchange workload for a topology. The
// all-to-all shuffle draws from the scale's pattern seed so every
// algorithm of a figure runs the identical exchange.
func BuildExchange(tp topo.Topology, kind ExchangeKind, scale Scale) (*traffic.Exchange, error) {
	nodes := tp.Nodes()
	switch kind {
	case ExA2A:
		return traffic.AllToAll(nodes, scale.A2APackets, rand.New(rand.NewSource(scale.patternSeed()))), nil
	case ExNN:
		tor, err := traffic.TorusFor(tp)
		if err != nil {
			return nil, err
		}
		return traffic.NearestNeighbor(tor, nodes, scale.NNPackets)
	default:
		return nil, fmt.Errorf("harness: unknown exchange %d", kind)
	}
}

// FigExchange regenerates Fig. 13 (A2A) or Fig. 14 (NN): effective
// throughput of one exchange per topology under MIN, INR and the
// topology's best adaptive configuration. Each bar is a one-run curve
// whose run's Throughput is the effective throughput (RunExchange).
func FigExchange(presets []Preset, kind ExchangeKind, scale Scale) (*Table, error) {
	label, fig := "all-to-all", "13"
	if kind == ExNN {
		label, fig = "nearest-neighbor", "14"
	}
	tps, family := map[string]topo.Topology{}, map[string]string{}
	var curves []Curve
	for _, p := range presets {
		tp, err := p.Build()
		if err != nil {
			return nil, err
		}
		// This instance only prices the preset's points by its packet
		// count; every point builds its own to run.
		ex, err := BuildExchange(tp, kind, scale)
		if err != nil {
			return nil, err
		}
		tps[p.Name], family[p.Name] = tp, p.Family()
		for _, alg := range []AlgKind{AlgMIN, AlgINR, AlgA} {
			curves = append(curves, Curve{Topo: p.Name, Alg: alg, UGAL: p.BestAdaptive, X: []float64{float64(ex.TotalPackets())}})
		}
	}
	// exResult's fields are exported so the experiment store can
	// round-trip it through JSON like any other point payload; Eff
	// repeats Res.Throughput.
	type exResult struct {
		Res sim.Results
		Eff float64
	}
	err := collectCurves(scale, curves, func(c *Curve, packets float64) Point[exResult] {
		tp, alg, ugal := tps[c.Topo], c.Alg, c.UGAL
		pt := Point[exResult]{
			Key:  fmt.Sprintf("exchange|%s|%s|%s", label, c.Topo, alg),
			Cost: pointCost(alg, packets),
			Run: func(ctx context.Context, seed int64) (exResult, error) {
				sc := scale.forPoint(ctx, seed)
				// Each point builds its own workload instance: the
				// Exchange tracks per-pair progress and must not be
				// shared between concurrent engines.
				ex, err := BuildExchange(tp, kind, sc)
				if err != nil {
					return exResult{}, err
				}
				res, eff, err := RunExchange(tp, alg, ugal, ex, sc)
				return exResult{res, eff}, err
			},
		}
		if alg.usesUGAL() {
			pt.UGAL = &ugal
		}
		return pt
	}, func(r exResult) sim.Results { return r.Res })
	if err != nil {
		return nil, err
	}
	return curveTable(fmt.Sprintf("Fig. %s: effective throughput for one %s exchange", fig, label),
		[]string{"topology", "routing", "effective throughput", "completion (cycles)"}, curves,
		func(c *Curve, i int) []string {
			name := c.Alg.String()
			if c.Alg == AlgA {
				name = family[c.Topo] + "-A"
			}
			return []string{c.Topo, name, f3(c.Runs[i].Throughput), d(int(c.Runs[i].Cycles))}
		}, "", nil), nil
}
