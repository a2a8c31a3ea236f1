package harness

import (
	"fmt"

	"diam2/internal/plot"
	"diam2/internal/sim"
	"diam2/internal/topo"
)

// FaultPlan describes the dynamic fault injection for a run. The zero
// value injects nothing. Exactly one of the two modes applies: a
// one-shot burst (FailCount / FailFrac links downed at FailAt) or a
// continuous MTBF-driven process (MTBF > 0, which takes precedence).
type FaultPlan struct {
	FailCount int     // links to fail at FailAt (0: use FailFrac)
	FailFrac  float64 // fraction of router links to fail at FailAt
	FailAt    int64   // cycle of the burst; < 0 means end of warmup
	MTBF      int64   // per-link mean cycles between failures (0: burst mode)
	MTTR      int64   // repair time for the MTBF process (0: MTBF/10)

	RetxTimeout    int // override sim.Config.RetxTimeout when > 0
	RebuildLatency int // override sim.Config.RebuildLatency: > 0 sets it, < 0 forces 0
}

// Active reports whether the plan injects any faults.
func (fp FaultPlan) Active() bool {
	return fp.FailCount > 0 || fp.FailFrac > 0 || fp.MTBF > 0
}

// apply builds the fault schedule for a topology and attaches it to
// the engine.
func (fp FaultPlan) apply(e *sim.Engine, t topo.Topology, sc Scale) error {
	if !fp.Active() {
		return nil
	}
	var fs *sim.FaultSchedule
	if fp.MTBF > 0 {
		mttr := fp.MTTR
		if mttr <= 0 {
			mttr = fp.MTBF / 10
			if mttr < 1 {
				mttr = 1
			}
		}
		fs = sim.NewRandomFaultSchedule(t, fp.MTBF, mttr, sc.Cycles, sc.Seed)
	} else {
		count := fp.FailCount
		if count == 0 {
			count = int(fp.FailFrac*float64(t.Graph().NumEdges()) + 0.5)
		}
		if count == 0 {
			return nil
		}
		at := fp.FailAt
		if at < 0 {
			at = sc.Warmup
		}
		var err error
		fs, err = sim.RandomLinkFailures(t, count, at, sc.Seed)
		if err != nil {
			return err
		}
	}
	return e.SetFaultSchedule(fs)
}

// applyOverrides folds the plan's simulator-parameter overrides into a
// config (used by Scale.SimConfig).
func (fp FaultPlan) applyOverrides(cfg *sim.Config) {
	if fp.RetxTimeout > 0 {
		cfg.RetxTimeout = fp.RetxTimeout
	}
	switch {
	case fp.RebuildLatency > 0:
		cfg.RebuildLatency = fp.RebuildLatency
	case fp.RebuildLatency < 0:
		cfg.RebuildLatency = 0
	}
}

// ResiliencePoint is one sample of a resilience curve: the network's
// behavior with a given fraction of its links failed mid-run.
type ResiliencePoint struct {
	Frac        float64 // requested failure fraction
	FailedLinks int64   // link failures actually applied
	Throughput  float64 // delivered load over the measurement window
	P99Latency  float64 // generation -> delivery, cycles
	Delivered   int64
	Generated   int64
	Dropped     int64 // packet drops caused by the failures
	Retransmits int64
	Recovery    int64 // max cycles from a packet's first drop to delivery
}

// ResilienceCurve is one (topology, algorithm, pattern) sweep across
// failure fractions.
type ResilienceCurve struct {
	Preset  string
	Alg     AlgKind
	Pattern PatternKind
	Points  []ResiliencePoint
}

// resilienceFailAt places the failure burst a quarter into the
// measurement window, so the run observes both the disruption and the
// recovery.
func resilienceFailAt(sc Scale) int64 {
	return sc.Warmup + (sc.Cycles-sc.Warmup)/4
}

// ResilienceSweep runs the resilience experiment: for each routing
// algorithm and traffic pattern, sweep the fraction of failed links
// and record delivered throughput, tail latency, retransmission
// counts, and recovery time. Links fail mid-measurement (a quarter
// into the window). Every (algorithm, pattern, fraction) point is
// independent and runs through the experiment scheduler; the random
// failure set of a point is drawn from its derived seed, so the sweep
// is deterministic for any worker count.
func ResilienceSweep(pre Preset, kinds []AlgKind, pats []PatternKind, fracs []float64, load float64, sc Scale) ([]ResilienceCurve, error) {
	tp, err := pre.Build()
	if err != nil {
		return nil, err
	}
	var points []Point[sim.Results]
	for _, kind := range kinds {
		for _, pat := range pats {
			for _, frac := range fracs {
				scf := sc
				scf.Faults = FaultPlan{FailFrac: frac, FailAt: resilienceFailAt(sc)}
				key := fmt.Sprintf("resilience|%s|%s|%s|frac=%.4f|load=%.4f", pre.Name, kind, pat, frac, load)
				points = append(points, syntheticPoint(key, tp, kind, pre.BestAdaptive, pat, load, scf, whole))
			}
		}
	}
	results, err := Collect(sc, points)
	if err != nil {
		return nil, err
	}
	var out []ResilienceCurve
	i := 0
	for _, kind := range kinds {
		for _, pat := range pats {
			curve := ResilienceCurve{Preset: pre.Name, Alg: kind, Pattern: pat}
			for _, frac := range fracs {
				res := results[i]
				i++
				curve.Points = append(curve.Points, ResiliencePoint{
					Frac:        frac,
					FailedLinks: res.Faults.LinkDownEvents,
					Throughput:  res.Throughput,
					P99Latency:  res.P99Latency,
					Delivered:   res.Delivered,
					Generated:   res.Generated,
					Dropped:     res.Faults.Dropped,
					Retransmits: res.Faults.Retransmits,
					Recovery:    res.Faults.MaxRecovery,
				})
			}
			out = append(out, curve)
		}
	}
	return out, nil
}

// DefaultFailureFractions is the failure sweep of the resilience
// experiment: 0-15% of router links, the range the Slim Fly resilience
// studies explore.
func DefaultFailureFractions() []float64 {
	return []float64{0, 0.01, 0.05, 0.10, 0.15}
}

// FigResilience renders the resilience sweep across presets as a
// table plus throughput-versus-failure-fraction charts.
func FigResilience(presets []Preset, kinds []AlgKind, pats []PatternKind, fracs []float64, load float64, sc Scale) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Resilience: delivered throughput vs. failed links (load %.2f)", load),
		Header: []string{"topology", "routing", "pattern", "fail frac", "links down", "throughput", "p99 latency", "dropped", "retx", "recovery (cycles)"},
	}
	thrChart := &plot.Chart{Title: t.Title, XLabel: "fraction of links failed", YLabel: "delivered throughput"}
	for _, pre := range presets {
		curves, err := ResilienceSweep(pre, kinds, pats, fracs, load, sc)
		if err != nil {
			return nil, err
		}
		for _, c := range curves {
			s := plot.Series{Label: fmt.Sprintf("%s %s %s", c.Preset, c.Alg, c.Pattern)}
			for _, p := range c.Points {
				t.AddRow(c.Preset, c.Alg.String(), c.Pattern.String(), f2(p.Frac), d(int(p.FailedLinks)),
					f3(p.Throughput), f1(p.P99Latency), d(int(p.Dropped)), d(int(p.Retransmits)), d(int(p.Recovery)))
				s.X = append(s.X, p.Frac)
				s.Y = append(s.Y, p.Throughput)
			}
			thrChart.Add(s)
		}
	}
	t.Charts = []*plot.Chart{thrChart}
	return t, nil
}
