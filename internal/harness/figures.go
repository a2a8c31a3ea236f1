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

// Fig6Oblivious regenerates Fig. 6: throughput (and saturation
// points) for oblivious MIN and INR routing under uniform (6a) or
// worst-case (6b) traffic across the given presets.
func Fig6Oblivious(presets []Preset, pat PatternKind, loads []float64, scale Scale) (*Table, error) {
	sub := "6a (uniform)"
	if pat == PatWC {
		sub = "6b (worst case)"
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. %s: oblivious routing throughput", sub),
		Header: []string{"topology", "routing", "load", "throughput", "avg latency (cycles)"},
	}
	thrChart := &plot.Chart{Title: t.Title, XLabel: "offered load", YLabel: "delivered throughput"}
	latChart := &plot.Chart{Title: t.Title + " — latency", XLabel: "offered load", YLabel: "avg latency (cycles)"}
	kinds := []AlgKind{AlgMIN, AlgINR}
	// Topologies are immutable once built, so one instance per preset
	// is shared by every point of the sweep.
	var points []Point[sim.Results]
	for _, p := range presets {
		tp, err := p.Build()
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			for _, load := range loads {
				points = append(points, syntheticPoint(pointKey("fig6", p.Name, kind, pat, load), tp, kind, p.BestAdaptive, pat, load, scale, whole))
			}
		}
	}
	results, err := Collect(scale, points)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, p := range presets {
		for _, kind := range kinds {
			thr := plot.Series{Label: p.Name + " " + kind.String()}
			lat := plot.Series{Label: thr.Label}
			for _, load := range loads {
				res := results[i]
				i++
				t.AddRow(p.Name, kind.String(), f2(load), f3(res.Throughput), f1(res.AvgLatency))
				thr.X = append(thr.X, load)
				thr.Y = append(thr.Y, res.Throughput)
				lat.X = append(lat.X, load)
				lat.Y = append(lat.Y, res.AvgLatency)
			}
			thrChart.Add(thr)
			latChart.Add(lat)
		}
	}
	t.Charts = []*plot.Chart{thrChart, latChart}
	return t, nil
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
	t := &Table{
		Title:  fmt.Sprintf("Adaptive sweep: %s %s", p.Name, kind),
		Header: []string{"pattern", "nI", "c", "load", "throughput", "avg latency (cycles)", "indirect frac"},
	}
	thrChart := &plot.Chart{Title: t.Title, XLabel: "offered load", YLabel: "delivered throughput"}
	latChart := &plot.Chart{Title: t.Title + " — latency", XLabel: "offered load", YLabel: "avg latency (cycles)"}
	type variant struct {
		ni int
		c  float64
	}
	var variants []variant
	for _, ni := range varyNI {
		variants = append(variants, variant{ni, fixedC})
	}
	for _, c := range varyC {
		variants = append(variants, variant{fixedNI, c})
	}
	pats := []PatternKind{PatUNI, PatWC}
	var points []Point[sim.Results]
	for _, v := range variants {
		cfg := p.BestAdaptive
		cfg.NI = v.ni
		if p.SFStyle {
			cfg.CSF = v.c
		} else {
			cfg.C = v.c
		}
		for _, pat := range pats {
			for _, load := range loads {
				key := fmt.Sprintf("adaptive|%s|%s|nI=%d|c=%g|%s|load=%.4f", p.Name, kind, v.ni, v.c, pat, load)
				points = append(points, syntheticPoint(key, tp, kind, cfg, pat, load, scale, whole))
			}
		}
	}
	results, err := Collect(scale, points)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, v := range variants {
		for _, pat := range pats {
			thr := plot.Series{Label: fmt.Sprintf("%s nI=%d c=%g", pat, v.ni, v.c)}
			lat := plot.Series{Label: thr.Label}
			for _, load := range loads {
				res := results[i]
				i++
				t.AddRow(pat.String(), d(v.ni), f2(v.c), f2(load), f3(res.Throughput), f1(res.AvgLatency), f3(res.IndirectFrac))
				thr.X = append(thr.X, load)
				thr.Y = append(thr.Y, res.Throughput)
				lat.X = append(lat.X, load)
				lat.Y = append(lat.Y, res.AvgLatency)
			}
			thrChart.Add(thr)
			latChart.Add(lat)
		}
	}
	t.Charts = []*plot.Chart{thrChart, latChart}
	return t, nil
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
// topology's best adaptive configuration.
func FigExchange(presets []Preset, kind ExchangeKind, scale Scale) (*Table, error) {
	label, fig := "all-to-all", "13"
	if kind == ExNN {
		label, fig = "nearest-neighbor", "14"
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. %s: effective throughput for one %s exchange", fig, label),
		Header: []string{"topology", "routing", "effective throughput", "completion (cycles)"},
	}
	algs := []AlgKind{AlgMIN, AlgINR, AlgA}
	// exResult's fields are exported so the experiment store can
	// round-trip it through JSON like any other point payload.
	type exResult struct {
		Res sim.Results
		Eff float64
	}
	var points []Point[exResult]
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
		for _, alg := range algs {
			var pin *UGALConfig
			if alg.usesUGAL() {
				pin = &p.BestAdaptive
			}
			points = append(points, Point[exResult]{
				Key:  fmt.Sprintf("exchange|%s|%s|%s", label, p.Name, alg),
				UGAL: pin,
				Cost: pointCost(alg, float64(ex.TotalPackets())),
				Run: func(ctx context.Context, seed int64) (exResult, error) {
					sc := scale.forPoint(ctx, seed)
					// Each point builds its own workload instance: the
					// Exchange tracks per-pair progress and must not be
					// shared between concurrent engines.
					ex, err := BuildExchange(tp, kind, sc)
					if err != nil {
						return exResult{}, err
					}
					res, eff, err := RunExchange(tp, alg, p.BestAdaptive, ex, sc)
					return exResult{res, eff}, err
				},
			})
		}
	}
	results, err := Collect(scale, points)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, p := range presets {
		for _, alg := range algs {
			r := results[i]
			i++
			name := alg.String()
			if alg == AlgA {
				name = p.Family() + "-A"
			}
			t.AddRow(p.Name, name, f3(r.Eff), d(int(r.Res.Cycles)))
		}
	}
	return t, nil
}
