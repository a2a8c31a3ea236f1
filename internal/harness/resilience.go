package harness

import (
	"fmt"

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
			mttr = max(fp.MTBF/10, 1)
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

// resilienceFailAt places the failure burst a quarter into the
// measurement window, so the run observes both the disruption and the
// recovery.
func resilienceFailAt(sc Scale) int64 {
	return sc.Warmup + (sc.Cycles-sc.Warmup)/4
}

// ResilienceSweep runs the resilience experiment: for each routing
// algorithm and traffic pattern, one curve over the fraction of failed
// links, whose runs record delivered throughput, tail latency and, in
// Results.Faults, the links downed, drops, retransmissions and
// recovery time. Links fail mid-measurement (a quarter into the
// window). Every (algorithm, pattern, fraction) point is independent
// and runs through the experiment scheduler; the random failure set of
// a point is drawn from its derived seed, so the sweep is
// deterministic for any worker count.
func ResilienceSweep(pre Preset, kinds []AlgKind, pats []PatternKind, fracs []float64, load float64, sc Scale) ([]Curve, error) {
	tp, err := pre.Build()
	if err != nil {
		return nil, err
	}
	var curves []Curve
	for _, kind := range kinds {
		for _, pat := range pats {
			curves = append(curves, Curve{Topo: pre.Name, Alg: kind, Pattern: pat, UGAL: pre.BestAdaptive, X: fracs})
		}
	}
	err = collectCurves(sc, curves, func(c *Curve, frac float64) Point[sim.Results] {
		scf := sc
		scf.Faults = FaultPlan{FailFrac: frac, FailAt: resilienceFailAt(sc)}
		key := fmt.Sprintf("resilience|%s|%s|%s|frac=%.4f|load=%.4f", c.Topo, c.Alg, c.Pattern, frac, load)
		return syntheticPoint(key, tp, c.Alg, c.UGAL, c.Pattern, load, scf, whole)
	}, whole)
	if err != nil {
		return nil, err
	}
	return curves, nil
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
	var curves []Curve
	for _, pre := range presets {
		cs, err := ResilienceSweep(pre, kinds, pats, fracs, load, sc)
		if err != nil {
			return nil, err
		}
		curves = append(curves, cs...)
	}
	return curveTable(fmt.Sprintf("Resilience: delivered throughput vs. failed links (load %.2f)", load),
		[]string{"topology", "routing", "pattern", "fail frac", "links down", "throughput", "p99 latency", "dropped", "retx", "recovery (cycles)"}, curves,
		func(c *Curve, i int) []string {
			r := c.Runs[i]
			f := r.Faults
			return []string{c.Topo, c.Alg.String(), c.Pattern.String(), f2(c.X[i]), d(int(f.LinkDownEvents)),
				f3(r.Throughput), f1(r.P99Latency), d(int(f.Dropped)), d(int(f.Retransmits)), d(int(f.MaxRecovery))}
		},
		"fraction of links failed", func(c *Curve) string { return fmt.Sprintf("%s %s %s", c.Topo, c.Alg, c.Pattern) }, throughputAxis), nil
}
