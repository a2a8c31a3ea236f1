package harness

import (
	"context"
	"fmt"
	"math/rand"

	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Scale groups the knobs that trade fidelity for speed. PaperScale
// mirrors Section 4.1; QuickScale shrinks buffers, latencies and run
// lengths for tests and benchmarks.
type Scale struct {
	Label      string
	Cycles     int64 // synthetic-run length
	Warmup     int64
	MaxDrain   int64 // cycle budget for exchanges
	A2APackets int   // packets per pair in the A2A exchange
	NNPackets  int   // packets per neighbor in the NN exchange
	Paper      bool  // use the paper's switch parameters
	Seed       int64
	// PatternSeed, when nonzero, seeds the traffic-structure draws
	// (the worst-case permutation, the all-to-all packet shuffle)
	// separately from Seed; zero falls back to Seed. Sweep generators
	// set it to the sweep's base seed before overriding Seed per
	// point, so every algorithm of a figure competes on the identical
	// workload while the engines draw independent streams.
	PatternSeed int64
	// Faults optionally injects dynamic link failures into every run
	// at this scale (see resilience.go); the zero value injects none.
	Faults FaultPlan
	// Sched carries the experiment-scheduler knobs (worker count,
	// progress callback, cancellation); see scheduler.go. The zero
	// value fans sweeps out across GOMAXPROCS / Cores workers. Results
	// are identical for any worker count: every sweep point runs with
	// a seed derived from (Seed, point key), not from execution order.
	Sched Sched
	// Telemetry opts every run at this scale into the unified
	// telemetry layer (see telemetry.go); the zero value attaches
	// nothing and leaves the engine's hot path untouched.
	Telemetry TelemetryPlan
	// Tier names the result tier every stored point at this scale is
	// keyed under: store.TierSim (the zero value; flit-level
	// simulation) or store.TierFluid (analytic screening estimates).
	// ScreenSweep sets it; ordinary sweeps leave it empty, so analytic
	// and simulated answers for the same point key never alias in the
	// experiment store.
	Tier string
	// Cores > 1 runs every engine at this scale with Cores shards and
	// Cores workers; 0 and 1 both mean one of each.
	// This is orthogonal to Sched's worker count (-j): -j fans a
	// sweep's *points* across processes of one machine, while Cores
	// splits the routers of a *single point* across threads. Sweeps
	// with many points should prefer -j (embarrassingly parallel, no
	// synchronization); Cores is for few huge points. Every shard
	// count keeps its own determinism contract — identical Results
	// for a fixed partition at any worker count — but results are not
	// bit-identical between shard counts (per-shard RNG streams; see
	// DESIGN.md §14), so the store keys carry Cores.
	Cores int
}

// PaperScale is the Section 4.1 setup: 200 us simulated, 20 us
// warm-up, 7.5 KB (30-packet) A2A messages and 512 KB (2048-packet)
// NN messages.
func PaperScale() Scale {
	cfg := sim.DefaultConfig(1)
	return Scale{
		Label:      "paper",
		Cycles:     cfg.CyclesForDuration(200e-6),
		Warmup:     cfg.CyclesForDuration(20e-6),
		MaxDrain:   cfg.CyclesForDuration(100e-3),
		A2APackets: 30,
		NNPackets:  2048,
		Paper:      true,
		Seed:       1,
	}
}

// MediumScale runs the paper's switch parameters (100 Gbps, 100 KB
// buffers) on the reduced topology instances for 100 us with a 10 us
// warm-up — the configuration used for the recorded reproduction in
// EXPERIMENTS.md. Shapes match the paper; absolute saturation points
// shift slightly with network size, and exchange messages are scaled
// down (10-packet A2A pairs, 512-packet NN messages) to keep the full
// figure set to about an hour of CPU — wall time divides by the core
// count when the sweep fans out (diam2sweep -j).
func MediumScale() Scale {
	cfg := sim.DefaultConfig(1)
	return Scale{
		Label:      "medium",
		Cycles:     cfg.CyclesForDuration(100e-6),
		Warmup:     cfg.CyclesForDuration(10e-6),
		MaxDrain:   cfg.CyclesForDuration(20e-3),
		A2APackets: 10,
		NNPackets:  512,
		Paper:      true,
		Seed:       1,
	}
}

// QuickScale keeps every code path but runs in milliseconds.
func QuickScale() Scale {
	return Scale{
		Label:      "quick",
		Cycles:     16000,
		Warmup:     3000,
		MaxDrain:   8_000_000,
		A2APackets: 2,
		NNPackets:  8,
		Seed:       1,
	}
}

// ScaleByName resolves the CLIs' shared -scale vocabulary to a scale
// and the preset set it runs on. Sweeps, reports and the query service
// only share store keys when they resolve the same name here.
func ScaleByName(name string) (Scale, []Preset, error) {
	switch name {
	case "quick":
		return QuickScale(), SmallPresets(), nil
	case "medium":
		return MediumScale(), SmallPresets(), nil
	case "paper":
		return PaperScale(), PaperPresets(), nil
	}
	return Scale{}, nil, fmt.Errorf("unknown scale %q (quick|medium|paper)", name)
}

// patternSeed returns the seed for traffic-structure draws.
func (s Scale) patternSeed() int64 {
	if s.PatternSeed != 0 {
		return s.PatternSeed
	}
	return s.Seed
}

// forPoint returns the scale a sweep point runs with: the point's
// derived seed drives the engine and fault draws, while the traffic
// structure stays pinned to the sweep's base seed. The scheduler's
// context rides along so the run itself (not just the dispatch) stops
// promptly on cancellation — without it, a cancelled sweep would run
// its in-flight stragglers to completion.
func (s Scale) forPoint(ctx context.Context, seed int64) Scale {
	s.PatternSeed = s.patternSeed()
	s.Seed = seed
	s.Sched.Ctx = ctx
	return s
}

// cancelCheckCycles is the granularity at which long engine runs poll
// for cancellation: coarse enough to be free (one atomic-free ctx.Err
// per ~8K simulated cycles), fine enough that even paper-scale points
// abort within milliseconds of Ctrl-C.
const cancelCheckCycles = 8192

// runCycles advances the engine n cycles in cancellation-checked
// chunks. Chunked stepping is bit-identical to one monolithic Run: a
// chunk's end cuts a sharded engine's epoch short, and Results do not
// depend on where epochs are cut (the cut-invariance clause of the
// engine's determinism contract, sim.TestEpochCutInvariance).
func runCycles(ctx context.Context, e *sim.Engine, n int64) error {
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := min(cancelCheckCycles, n)
		e.Run(chunk)
		n -= chunk
	}
	return nil
}

// runUntilDrained drains the engine with the same cancellation
// polling; it reports whether the network drained before maxCycles.
func runUntilDrained(ctx context.Context, e *sim.Engine, maxCycles int64) (bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		limit := min(e.Now()+cancelCheckCycles, maxCycles)
		if e.RunUntilDrained(limit) {
			return true, nil
		}
		if e.Now() >= maxCycles {
			return false, nil
		}
	}
}

// run is the one path every simulated point takes: routing tables,
// network, engine (Cores shards and workers; one of each for
// Cores <= 1), fault schedule, telemetry collector under label, the
// run itself — s.Cycles cycles of an open-loop workload, or a
// closed-loop one until it drains — then Finish and the results. The
// per-event telemetry hooks need the one-shard engine, so a scale that
// sets both Cores > 1 and a telemetry sink is rejected rather than
// silently dropping events. An undrained closed loop returns its
// results so far beside the error.
func (s Scale) run(t topo.Topology, kind AlgKind, ugal UGALConfig, label string, closedLoop bool,
	workload func(sim.Config) (sim.Workload, error)) (sim.Results, error) {
	alg, cfg, err := buildAlg(t, kind, ugal, s)
	if err != nil {
		return sim.Results{}, err
	}
	w, err := workload(cfg)
	if err != nil {
		return sim.Results{}, err
	}
	net, err := sim.NewNetwork(t, cfg)
	if err != nil {
		return sim.Results{}, err
	}
	cores := max(s.Cores, 1)
	if cores > 1 && s.Telemetry.Sink != nil {
		return sim.Results{}, fmt.Errorf("harness: telemetry requires the serial engine; drop -cores=%d or the telemetry sink", s.Cores)
	}
	e, err := sim.NewParallelEngine(net, alg, w, sim.ParallelOptions{Partitions: cores, Workers: cores})
	if err != nil {
		return sim.Results{}, err
	}
	defer e.Stop()
	if !closedLoop {
		// Warm-up only gates the statistics, and a closed loop is
		// measured whole (Section 4.4): an exchange can finish inside
		// the open-loop warm-up window.
		e.Warmup = s.Warmup
	}
	if err := s.faults().apply(e, t, s); err != nil {
		return sim.Results{}, err
	}
	col := s.Telemetry.attach(e, label)
	drained := true
	if closedLoop {
		drained, err = runUntilDrained(s.Sched.context(), e, s.MaxDrain)
	} else {
		err = runCycles(s.Sched.context(), e, s.Cycles)
	}
	if err != nil {
		s.Telemetry.discard(col)
		return sim.Results{}, err
	}
	e.Finish()
	s.Telemetry.collect(col)
	res := e.Results()
	if !drained {
		return res, fmt.Errorf("harness: exchange %s did not drain in %d cycles", w.Name(), s.MaxDrain)
	}
	countCycles(res.Cycles)
	return res, nil
}

// faults is the scale's fault plan in the normal form its runs inject
// and its store keys carry.
func (s Scale) faults() FaultPlan { return s.Faults.normal(s.Warmup) }

// SimConfig returns the switch configuration for this scale and VC
// count.
func (s Scale) SimConfig(numVCs int) sim.Config {
	var cfg sim.Config
	if s.Paper {
		cfg = sim.DefaultConfig(numVCs)
	} else {
		cfg = sim.TestConfig(numVCs)
	}
	cfg.Seed = s.Seed
	s.faults().applyOverrides(&cfg)
	return cfg
}

// RunSynthetic executes one open-loop run and returns its results.
func RunSynthetic(t topo.Topology, kind AlgKind, ugal UGALConfig, pat PatternKind, load float64, scale Scale) (sim.Results, error) {
	label := fmt.Sprintf("%s|%s|%s|load=%.4f|seed=%d", t.Name(), kind, pat, load, scale.Seed)
	return scale.run(t, kind, ugal, label, false, func(cfg sim.Config) (sim.Workload, error) {
		var pattern traffic.Pattern
		switch pat {
		case PatUNI:
			pattern = traffic.Uniform{N: t.Nodes()}
		case PatWC:
			wc, err := traffic.WorstCase(t, rand.New(rand.NewSource(scale.patternSeed())))
			if err != nil {
				return nil, err
			}
			pattern = wc
		default:
			return nil, fmt.Errorf("harness: unknown pattern %d", pat)
		}
		return &traffic.OpenLoop{Pattern: pattern, Load: load, PacketFlits: cfg.PacketFlits()}, nil
	})
}

// RunExchange executes a closed-loop exchange to completion and
// returns the results plus the effective throughput (total delivered
// load as a fraction of aggregate injection bandwidth, Section 4.4):
// the run's Throughput, which a closed loop measures from cycle zero.
func RunExchange(t topo.Topology, kind AlgKind, ugal UGALConfig, ex *traffic.Exchange, scale Scale) (sim.Results, float64, error) {
	if err := ex.CheckNodes(t.Nodes()); err != nil {
		return sim.Results{}, 0, err
	}
	label := fmt.Sprintf("%s|%s|%s|seed=%d", t.Name(), kind, ex.Name(), scale.Seed)
	res, err := scale.run(t, kind, ugal, label, true, func(sim.Config) (sim.Workload, error) { return ex, nil })
	return res, res.Throughput, err
}

// syntheticPoint is the scheduler point of one open-loop run under
// key — the one place a point key meets RunSynthetic. An adaptive kind
// pins its resolved UGAL configuration for the store's canonical key
// (the key string names the kind, not every knob: diam2sim -ni/-c
// override them without renaming anything); the run takes the point's
// derived seed and the scheduler's context; out shapes the payload the
// store records. Its cost is proportional to the packets offered over
// the run (the warm-up is inside Cycles).
func syntheticPoint[T any](key string, t topo.Topology, kind AlgKind, ugal UGALConfig, pat PatternKind, load float64, scale Scale, out func(sim.Results) T) Point[T] {
	p := Point[T]{Key: key, Run: func(ctx context.Context, seed int64) (T, error) {
		res, err := RunSynthetic(t, kind, ugal, pat, load, scale.forPoint(ctx, seed))
		if err != nil {
			var zero T
			return zero, err
		}
		return out(res), nil
	}, Cost: pointCost(kind, load*float64(t.Nodes())*float64(scale.Cycles))}
	if kind.usesUGAL() {
		p.UGAL = &ugal
	}
	return p
}

// pointCost is a run's Point.Cost: the packets it moves, doubled for
// the kinds that may send them over a Valiant detour (INR, A, ATh),
// which takes twice the hops of a minimal path.
func pointCost(kind AlgKind, packets float64) float64 {
	if kind != AlgMIN {
		return 2 * packets
	}
	return packets
}

// pointKey is the scheduler key of the per-load point families:
// family|topology|routing|pattern|load.
func pointKey(family, topoName string, kind AlgKind, pat PatternKind, load float64) string {
	return fmt.Sprintf("%s|%s|%s|%s|load=%.4f", family, topoName, kind, pat, load)
}

// whole keeps a run's full results as the point's payload.
func whole(res sim.Results) sim.Results { return res }

// SaturationPoint sweeps offered load and returns the highest load at
// which delivered throughput still tracks the offer within tol
// (e.g. 0.05 = 5%), along with the ladder as a curve over loads. The
// ladder runs through the experiment scheduler (scale.Sched), one
// point per load.
func SaturationPoint(t topo.Topology, kind AlgKind, ugal UGALConfig, pat PatternKind, loads []float64, tol float64, scale Scale) (float64, Curve, error) {
	curves := []Curve{{Topo: t.Name(), Alg: kind, Pattern: pat, UGAL: ugal, X: loads}}
	err := collectCurves(scale, curves, func(_ *Curve, load float64) Point[sim.Results] {
		return syntheticPoint(pointKey("sat", t.Name(), kind, pat, load), t, kind, ugal, pat, load, scale, whole)
	}, whole)
	if err != nil {
		return 0, Curve{}, err
	}
	sat := 0.0
	for i, res := range curves[0].Runs {
		if res.Throughput >= loads[i]*(1-tol) {
			sat = loads[i]
		}
	}
	return sat, curves[0], nil
}

// LoadPoint is one sample of a throughput/latency-vs-load curve.
type LoadPoint struct {
	Load       float64
	Throughput float64
	AvgLatency float64
}

// loadPoint samples a run's results at its offered load.
func loadPoint(load float64, res sim.Results) LoadPoint {
	return LoadPoint{Load: load, Throughput: res.Throughput, AvgLatency: res.AvgLatency}
}
