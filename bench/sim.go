package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"diam2/internal/harness"
	"diam2/internal/sim"
	"diam2/internal/traffic"
)

// digests names the SHA-256 of each output a round produces. Rounds of
// one run repeat the same seeded inputs, so their digests must agree;
// at seed 1 they must also equal testdata/digests.json.
type digests map[string]string

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // tables and sim.Results are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pointKind says how a simulated point drives the engine.
type pointKind int

const (
	openLoop    pointKind = iota // steady-state synthetic traffic for Scale.Cycles
	exchangeA2A                  // closed-loop all-to-all, run until drained
	exchangeNN                   // closed-loop nearest-neighbour, run until drained
)

// simPoint is one simulated point of a round, in the form the traced
// run needs to assemble it by hand from the layers' constructors.
type simPoint struct {
	id     string
	preset int // index into simWorkload.presets
	alg    harness.AlgKind
	ugal   harness.UGALConfig
	what   pointKind
	pat    harness.PatternKind
	load   float64
	seed   int64
}

// simWorkload is one of the three simulator workloads. round is the
// end-to-end path, through the harness as its users call it; points
// lists the same round point by point for set-up timing and tracing.
type simWorkload struct {
	name    string
	presets []harness.Preset
	scale   harness.Scale
	points  []simPoint
	// round runs every point once and returns the digest of each
	// output and the cycles simulated. onPoint sees every finished
	// point, never concurrently.
	round func(onPoint func(id string, elapsed time.Duration)) (digests, int64, error)
}

// ladder nudges each base load by a seed-derived multiple of 0.005 (at
// most 0.01): the load ladder comes from the seed, yet the work per
// point stays within a percent or two between seeds.
func ladder(seed int64, base ...float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(base))
	for i, b := range base {
		out[i] = math.Round((b+float64(rng.Intn(5)-2)*0.005)*1e4) / 1e4
	}
	return out
}

// usableSeed returns the seed a workload bases its scale on: seed
// itself if the worst-case traffic permutation can be drawn from it on
// every preset, else the first of a seed-derived sequence of candidates
// for which it can. (The Slim Fly pairing is a randomized construction
// that fails for about one seed in five; a workload must not.)
func usableSeed(seed int64, presets []harness.Preset) (int64, error) {
	candidate := seed
	for try := 1; try <= 64; try++ {
		ok := true
		for _, p := range presets {
			tp, err := p.Build()
			if err != nil {
				return 0, err
			}
			if _, err := traffic.WorstCase(tp, rand.New(rand.NewSource(candidate))); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return candidate, nil
		}
		candidate = harness.DeriveSeed(seed, fmt.Sprintf("retry %d", try))
	}
	return 0, fmt.Errorf("no usable seed near %d: the worst-case permutation cannot be drawn", seed)
}

// bestC is the cost constant AdaptiveSweep varies, at the preset's
// preferred value.
func bestC(p harness.Preset) float64 {
	if p.SFStyle {
		return p.BestAdaptive.CSF
	}
	return p.BestAdaptive.C
}

// newFigsSweep is the paper's figure set at quick scale: Fig. 6 for UNI
// and WC, one adaptive variant per preset for A and ATh, and the two
// exchanges, through the real generators and scheduler, with no store.
func newFigsSweep(o opts) (*simWorkload, error) {
	presets := harness.SmallPresets()
	loads := ladder(o.seed, 0.2, 0.5, 0.8)
	sc := harness.QuickScale()
	sc.Cycles, sc.Warmup = 2000, 400
	if o.smoke {
		presets, loads = presets[:1], loads[:2]
		sc.Cycles, sc.Warmup, sc.A2APackets = 400, 100, 1
	}
	seed, err := usableSeed(o.seed, presets)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	sc.PatternSeed = seed
	sc.Sched.Workers = 2
	w := &simWorkload{name: "figs_sweep", presets: presets, scale: sc}

	add := func(pt simPoint) {
		pt.seed = harness.DeriveSeed(seed, pt.id)
		w.points = append(w.points, pt)
	}
	pats := []harness.PatternKind{harness.PatUNI, harness.PatWC}
	for _, pat := range pats {
		for i, p := range presets {
			for _, alg := range []harness.AlgKind{harness.AlgMIN, harness.AlgINR} {
				for _, load := range loads {
					add(simPoint{id: fmt.Sprintf("fig6|%s|%s|%s|%.4f", p.Name, alg, pat, load),
						preset: i, alg: alg, pat: pat, load: load})
				}
			}
		}
	}
	for i, p := range presets {
		for _, alg := range []harness.AlgKind{harness.AlgA, harness.AlgATh} {
			for _, pat := range pats {
				for _, load := range loads {
					add(simPoint{id: fmt.Sprintf("adaptive|%s|%s|%s|%.4f", p.Name, alg, pat, load),
						preset: i, alg: alg, ugal: p.BestAdaptive, pat: pat, load: load})
				}
			}
		}
	}
	for _, ex := range []pointKind{exchangeA2A, exchangeNN} {
		for i, p := range presets {
			for _, alg := range []harness.AlgKind{harness.AlgMIN, harness.AlgINR, harness.AlgA} {
				add(simPoint{id: fmt.Sprintf("exchange|%d|%s|%s", ex, p.Name, alg),
					preset: i, alg: alg, ugal: p.BestAdaptive, what: ex})
			}
		}
	}

	w.round = func(onPoint func(string, time.Duration)) (digests, int64, error) {
		sc := sc
		sc.Sched.OnPoint = func(_, _ int, key string, elapsed time.Duration) { onPoint(key, elapsed) }
		d := digests{}
		before := harness.SimulatedCycles()
		for _, pat := range pats {
			t, err := harness.Fig6Oblivious(presets, pat, loads, sc)
			if err != nil {
				return nil, 0, err
			}
			d["fig6."+pat.String()] = digestOf(t.Rows)
		}
		for _, p := range presets {
			for _, alg := range []harness.AlgKind{harness.AlgA, harness.AlgATh} {
				t, err := harness.AdaptiveSweep(p, alg, []int{p.BestAdaptive.NI}, nil, 0, bestC(p), loads, sc)
				if err != nil {
					return nil, 0, err
				}
				d["adaptive."+p.Name+"."+alg.String()] = digestOf(t.Rows)
			}
		}
		for _, ex := range []harness.ExchangeKind{harness.ExA2A, harness.ExNN} {
			t, err := harness.FigExchange(presets, ex, sc)
			if err != nil {
				return nil, 0, err
			}
			d[fmt.Sprintf("exchange.%d", ex)] = digestOf(t.Rows)
		}
		return d, harness.SimulatedCycles() - before, nil
	}
	return w, nil
}

// newPaperPoint is two points on the paper's SF(q=13) with the paper's
// switch parameters, one after the other: MIN/UNI near load 0.7 and
// A/WC near load 0.4. cores > 1 runs them on the sharded engine.
func newPaperPoint(o opts, cores int) (*simWorkload, error) {
	p := harness.PaperPresets()[0]
	loads := ladder(o.seed, 0.7, 0.4)
	sc := harness.PaperScale()
	sc.Cycles, sc.Warmup = 1500, 300
	if o.smoke {
		sc.Cycles, sc.Warmup = 200, 50
	}
	seed, err := usableSeed(o.seed, []harness.Preset{p})
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	sc.PatternSeed = seed
	sc.Sched.Workers = 1
	sc.Cores = cores
	name := "paper_point"
	if cores > 1 {
		name = "paper_point_sharded"
	}
	w := &simWorkload{name: name, presets: []harness.Preset{p}, scale: sc}
	w.points = []simPoint{
		{id: "MIN-UNI", alg: harness.AlgMIN, pat: harness.PatUNI, load: loads[0]},
		{id: "A-WC", alg: harness.AlgA, ugal: p.BestAdaptive, pat: harness.PatWC, load: loads[1]},
	}
	for i := range w.points {
		w.points[i].seed = harness.DeriveSeed(seed, w.points[i].id)
	}

	w.round = func(onPoint func(string, time.Duration)) (digests, int64, error) {
		tp, err := p.Build()
		if err != nil {
			return nil, 0, err
		}
		d := digests{}
		var cycles int64
		for _, pt := range w.points {
			sc := sc
			sc.Seed = pt.seed
			start := time.Now()
			res, err := harness.RunSynthetic(tp, pt.alg, pt.ugal, pt.pat, pt.load, sc)
			if err != nil {
				return nil, 0, fmt.Errorf("point %s: %w", pt.id, err)
			}
			onPoint(pt.id, time.Since(start))
			if err := belowSaturation(pt, res, sc.Warmup); err != nil {
				return nil, 0, err
			}
			d[pt.id] = digestOf(res)
			cycles += res.Cycles
		}
		return d, cycles, nil
	}
	return w, nil
}

// belowSaturation checks what is known about the two paper-scale points
// whatever the seed: both loads sit below saturation, so once the
// network has filled it must deliver what is offered. The smoke run's
// warm-up is too short to fill it, and is only required to deliver.
func belowSaturation(pt simPoint, res sim.Results, warmup int64) error {
	if res.Delivered == 0 || (warmup >= 300 && math.Abs(res.Throughput-pt.load) > 0.1*pt.load) {
		return fmt.Errorf("point %s: delivered throughput %.4f does not track the offered load %.4f", pt.id, res.Throughput, pt.load)
	}
	return nil
}

// runSim is one run of a simulator workload: the traced pass, or timed
// set-ups and then as many untraced rounds as fit in o.seconds.
func runSim(w *simWorkload, o opts) (result, digests, error) {
	if o.trace {
		return w.traced(o)
	}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setUp(); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		first  digests
		timed  rounds
		failed int
		begin  = time.Now()
	)
	for {
		var latencies []float64 // host milliseconds per point
		start := time.Now()
		d, cycles, err := w.round(func(_ string, elapsed time.Duration) {
			latencies = append(latencies, ms(elapsed.Seconds()))
		})
		if err != nil {
			return result{}, nil, err
		}
		timed.add(float64(cycles), time.Since(start).Seconds(), latencies)
		if first == nil {
			first = d
		} else if diff := first.differ(d); diff != "" {
			logf("round %d is not the repeat of round 1: %s", len(timed.Rate), diff)
			failed += len(w.points)
		}
		// Stop within half a round of the budget, on either side.
		spent := time.Since(begin).Seconds()
		if spent+spent/float64(len(timed.Rate))/2 >= o.seconds {
			break
		}
	}
	if diff := o.golden(w.name).differ(first); diff != "" {
		logf("seed %d outputs differ from testdata/digests.json: %s", o.seed, diff)
		failed = len(timed.Rate) * len(w.points)
	}

	res := newResult(endToEnd, map[string]float64{
		"setup_s":     median(setups),
		"work_per_s":  median(timed.Rate),
		"op_p50_ms":   median(timed.P50),
		"peak_rss_mb": peakRSSMB(0),
	})
	res.Attempted = len(timed.Rate) * len(w.points)
	res.Failed = failed
	res.Correct = failed == 0
	logf("%s: %d rounds of %d points in %.1f s", w.name, len(timed.Rate), len(w.points), time.Since(begin).Seconds())
	timed.log()
	return res, first, nil
}

// differ names the first output on which two digest sets disagree, or
// returns "" when they agree (a nil receiver agrees with anything: no
// golden digests are recorded for that seed).
func (d digests) differ(other digests) string {
	if d == nil {
		return ""
	}
	var bad []string
	for _, name := range sortedKeys(d) {
		if other[name] != d[name] {
			bad = append(bad, name)
		}
	}
	if len(d) != len(other) {
		bad = append(bad, fmt.Sprintf("%d outputs against %d", len(d), len(other)))
	}
	return strings.Join(bad, ", ")
}
