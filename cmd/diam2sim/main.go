// Command diam2sim runs a single simulation: one topology, one
// routing strategy, one traffic pattern, one offered load.
//
// Usage:
//
//	diam2sim -topo sf9 -alg min -pattern uni -load 0.5
//	diam2sim -topo mlfm -alg ath -pattern wc -load 1.0 -scale paper
//	diam2sim -topo oft -alg a -exchange a2a
//	diam2sim -topo sf10 -alg inr -exchange nn -scale quick
//	diam2sim -topo mlfm -alg min -load 0.3 -fail-links 0.05 -fail-at 5000
//	diam2sim -topo oft -alg a -load 0.5 -mtbf 200000 -retx-timeout 1024
//
// Topologies: sf9, sf10, mlfm, oft (paper configs), sf-small,
// mlfm-small, oft-small, or file:PATH to load an edge-list topology
// (see topo.ReadEdgeList). File topologies are named PATH#DIGEST — a
// content digest, so -store results keyed under one file never get
// reused after the file changes. Algorithms: min, inr, a, ath. Patterns:
// uni, wc. Exchanges: a2a, nn (override -pattern). -saturate sweeps
// the default load ladder through the experiment scheduler and
// reports the highest load whose delivered throughput tracks the
// offer within 5%; -j sets the pool size (0: all CPUs) and -progress
// reports each completed point on stderr.
//
// Parallelism comes in two orthogonal flavors. -j runs independent
// sweep *points* concurrently (embarrassingly parallel, results
// byte-identical for any -j). -cores shards the routers of each
// *single simulation* across that many threads of the sharded engine
// — use it for one huge run, not for sweeps. A -cores run follows its
// own determinism contract (identical results for a fixed partition
// at any thread count) but is not bit-identical to a serial run, so
// -store keys the two separately; see DESIGN.md §14.
//
// Fault injection: -fail-links downs a random (seeded) set of router
// links at cycle -fail-at; -mtbf instead drives a continuous per-link
// failure/repair process. Dropped packets are retransmitted by their
// sources after -retx-timeout cycles with exponential backoff, and
// routing tables are rebuilt from the degraded graph after the
// -rebuild-latency window.
//
// Profiling: -cpuprofile/-memprofile write pprof profiles of the run,
// -traceprofile a runtime execution trace (the tool for diagnosing
// -cores barrier imbalance); the summary always includes the achieved
// simulation rate (cycles/s). See README, "Profiling the engine".
//
// Observability: -telemetry collects the unified telemetry of the run
// (congestion heatmap, minimal-vs-indirect latency split, flight
// recorder); -trace-out FILE exports the recorded events as JSONL and
// -http ADDR serves /telemetry, /debug/vars and /debug/pprof live.
// See README, "Observability".
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"diam2/internal/cliflags"
	"diam2/internal/harness"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

func main() {
	var (
		topoName = flag.String("topo", "mlfm", "topology: sf9|sf10|mlfm|oft|sf-small|mlfm-small|oft-small")
		algName  = flag.String("alg", "min", "routing: min|inr|a|ath")
		pattern  = flag.String("pattern", "uni", "synthetic pattern: uni|wc")
		exchange = flag.String("exchange", "", "closed-loop exchange instead: a2a|nn")
		load     = flag.Float64("load", 0.5, "offered load (fraction of injection bandwidth)")
		scale    = flag.String("scale", "quick", "scale: quick|medium|paper")
		ni       = flag.Int("ni", 0, "override UGAL nI")
		c        = flag.Float64("c", 0, "override UGAL cost constant (c or cSF)")
		seed     = flag.Int64("seed", 1, "random seed")
		saturate = flag.Bool("saturate", false, "sweep the load ladder for the saturation load instead of one run")
		jobs     = flag.Int("j", 0, "worker-pool size for -saturate: independent points in parallel (0: all CPUs, 1: serial); orthogonal to -cores")
		cores    = flag.Int("cores", 1, "threads *within* each simulation (sharded engine; 1: serial engine); orthogonal to -j, not bit-identical to serial")
		progress = flag.Bool("progress", false, "report each completed sweep point on stderr")

		failLinks  = flag.Float64("fail-links", 0, "links to fail mid-run: a fraction (< 1) or a count (>= 1)")
		failAt     = flag.Int64("fail-at", -1, "cycle at which -fail-links links go down (default: end of warmup)")
		mtbf       = flag.Int64("mtbf", 0, "per-link mean cycles between failures (enables the random fault process)")
		mttr       = flag.Int64("mttr", 0, "per-link repair time in cycles for -mtbf (default: mtbf/10)")
		retxTO     = flag.Int("retx-timeout", 0, "override the retransmission timeout, cycles")
		rebuildLat = flag.Int("rebuild-latency", 0, "override the routing-table rebuild latency, cycles (negative forces instant rebuild)")

		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		traceProfile = flag.String("traceprofile", "", "write a runtime execution trace of the run to this file (go tool trace; shows -cores barrier waits)")

		// The store rides the experiment scheduler, so it covers the
		// -saturate ladder; a plain single run bypasses it.
		st  cliflags.Store
		tel cliflags.Telemetry
	)
	st.Register()
	tel.Register(false)
	cliflags.Parse("diam2sim")
	fp := harness.FaultPlan{
		FailAt:         *failAt,
		MTBF:           *mtbf,
		MTTR:           *mttr,
		RetxTimeout:    *retxTO,
		RebuildLatency: *rebuildLat,
	}
	if *failLinks >= 1 {
		fp.FailCount = int(*failLinks)
	} else {
		fp.FailFrac = *failLinks
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProf, err := harness.StartProfiles(*cpuProfile, *memProfile, *traceProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diam2sim:", err)
		os.Exit(1)
	}
	runErr := run(ctx, *topoName, *algName, *pattern, *exchange, *load, *scale, *ni, *c, *seed, *saturate, *jobs, *cores, *progress, fp, tel, st)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "diam2sim:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "diam2sim:", runErr)
		os.Exit(1)
	}
}

func findPreset(name string) (harness.Preset, error) {
	if strings.HasPrefix(name, "file:") {
		path := strings.TrimPrefix(name, "file:")
		// The file is read once, up front, and a digest of its contents
		// becomes part of the topology name. The name is what reaches
		// every scheduler point key and thus the store's canonical keys:
		// the path alone must not address results, because the file can
		// change between runs against the same -store. Build parses the
		// captured bytes, so the digested contents are exactly what runs.
		data, err := os.ReadFile(path)
		if err != nil {
			return harness.Preset{}, err
		}
		sum := sha256.Sum256(data)
		tagged := fmt.Sprintf("%s#%x", path, sum[:6])
		return harness.Preset{
			Name: tagged,
			Build: func() (topo.Topology, error) {
				return topo.ReadEdgeList(bytes.NewReader(data), tagged)
			},
			BestAdaptive: harness.UGALConfig{NI: 4, C: 2},
		}, nil
	}
	return harness.PresetByShort(name)
}

func parseAlg(name string) (harness.AlgKind, error) {
	switch name {
	case "min":
		return harness.AlgMIN, nil
	case "inr":
		return harness.AlgINR, nil
	case "a":
		return harness.AlgA, nil
	case "ath":
		return harness.AlgATh, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

func run(ctx context.Context, topoName, algName, pattern, exchange string, load float64, scaleName string, ni int, c float64, seed int64, saturate bool, jobs, cores int, progress bool, fp harness.FaultPlan, tel cliflags.Telemetry, st cliflags.Store) error {
	preset, err := findPreset(topoName)
	if err != nil {
		return err
	}
	alg, err := parseAlg(algName)
	if err != nil {
		return err
	}
	sc, _, err := harness.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	sc.Seed = seed
	sc.Faults = fp
	sc.Cores = cores
	sc.Sched = harness.Sched{Workers: jobs, Ctx: ctx}
	if progress {
		// The progress line spells out both parallelism axes so "-j 4
		// -cores 2" is legible: points fan out across -j workers, and
		// each point's engine is itself sharded across -cores threads.
		engTag := ""
		if cores > 1 {
			engTag = fmt.Sprintf(" [engine: %d-core sharded]", cores)
		}
		sc.Sched.OnPoint = func(done, total int, key string, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)%s\n", done, total, key, elapsed.Round(time.Millisecond), engTag)
		}
	}
	sink, _, telShutdown, err := tel.Setup(&sc, false)
	if err != nil {
		return err
	}
	defer telShutdown()
	closeStore, err := st.Attach("diam2sim", &sc, false)
	if err != nil {
		return err
	}
	defer closeStore()
	ugal := preset.BestAdaptive
	if ni > 0 {
		ugal.NI = ni
	}
	if c > 0 {
		if preset.SFStyle {
			ugal.CSF = c
		} else {
			ugal.C = c
		}
	}
	tp, err := preset.Build()
	if err != nil {
		return err
	}
	// Engine speed summary: total simulated cycles (all runs, all
	// workers) over the wall time they took. Stderr, like the sweep
	// summary: it is timing-dependent (and absent on a full store
	// replay), and stdout must stay byte-identical across -j values
	// and warm -store reruns.
	start := time.Now()
	simRate := func() {
		wall := time.Since(start)
		if cyc := harness.SimulatedCycles(); cyc > 0 && wall > 0 {
			fmt.Fprintf(os.Stderr, "engine    %d cycles simulated in %s (%.0f cycles/s)\n",
				cyc, wall.Round(time.Millisecond), float64(cyc)/wall.Seconds())
		}
	}
	cost := topo.CostOf(tp)
	fmt.Printf("topology  %s: N=%d R=%d radix=%d (%.2f ports, %.2f links per node)\n",
		preset.Name, cost.Nodes, cost.Routers, tp.Radix(), cost.PortsPerNode, cost.LinksPerNode)
	if cores > 1 {
		fmt.Printf("engine    sharded: %d partitions x %d worker threads per run (serial when -cores 1)\n", cores, cores)
	}

	if exchange != "" {
		var kind harness.ExchangeKind
		switch exchange {
		case "a2a":
			kind = harness.ExA2A
		case "nn":
			kind = harness.ExNN
		default:
			return fmt.Errorf("unknown exchange %q", exchange)
		}
		var ex *traffic.Exchange
		if kind == harness.ExA2A {
			ex = traffic.AllToAll(tp.Nodes(), sc.A2APackets, rand.New(rand.NewSource(sc.Seed)))
		} else {
			tor, err := traffic.TorusFor(tp)
			if err != nil {
				return err
			}
			ex, err = traffic.NearestNeighbor(tor, tp.Nodes(), sc.NNPackets)
			if err != nil {
				return err
			}
			fmt.Printf("torus     %dx%dx%d\n", tor.X, tor.Y, tor.Z)
		}
		res, eff, err := harness.RunExchange(tp, alg, ugal, ex, sc)
		if err != nil {
			return err
		}
		fmt.Printf("exchange  %s with %s: %d packets\n", ex.Name(), algName, ex.TotalPackets())
		fmt.Printf("completed in %d cycles (%.1f us at 100 Gbps)\n", res.Cycles,
			sim.DefaultConfig(1).LatencySeconds(float64(res.Cycles))*1e6)
		fmt.Printf("effective throughput %.1f%% of injection bandwidth\n", eff*100)
		printResults(res)
		simRate()
		return report(tel, sink)
	}

	var pat harness.PatternKind
	switch pattern {
	case "uni":
		pat = harness.PatUNI
	case "wc":
		pat = harness.PatWC
	default:
		return fmt.Errorf("unknown pattern %q", pattern)
	}
	if saturate {
		// The load ladder is a set of independent runs, so it goes
		// through the experiment scheduler and parallelizes with -j.
		sat, curve, err := harness.SaturationPoint(tp, alg, ugal, pat, harness.DefaultLoads(), 0.05, sc)
		if err != nil {
			return err
		}
		for _, p := range curve {
			fmt.Printf("load %.2f: throughput %.3f, avg latency %.0f cycles\n", p.Load, p.Throughput, p.AvgLatency)
		}
		fmt.Printf("saturation load (%s, %s): %.3f of injection bandwidth\n", pattern, algName, sat)
		simRate()
		fmt.Fprintf(os.Stderr, "diam2sim: %d points in %s wall time\n", len(curve), time.Since(start).Round(time.Millisecond))
		return report(tel, sink)
	}
	res, err := harness.RunSynthetic(tp, alg, ugal, pat, load, sc)
	if err != nil {
		return err
	}
	fmt.Printf("synthetic %s with %s at load %.2f for %d cycles (warmup %d)\n",
		pattern, algName, load, sc.Cycles, sc.Warmup)
	fmt.Printf("delivered throughput %.1f%% of injection bandwidth\n", res.Throughput*100)
	printResults(res)
	simRate()
	return report(tel, sink)
}

func printResults(res sim.Results) {
	fmt.Printf("packets   generated=%d injected=%d delivered=%d\n", res.Generated, res.Injected, res.Delivered)
	fmt.Printf("latency   avg=%.0f p99=%.0f max=%.0f cycles (network-only avg %.0f)\n",
		res.AvgLatency, res.P99Latency, res.MaxLatency, res.AvgNetLatency)
	fmt.Printf("routing   avg hops %.2f, %.1f%% indirect\n", res.AvgHops, res.IndirectFrac*100)
	f := res.Faults
	if f.LinkDownEvents+f.SkippedEvents > 0 {
		fmt.Printf("faults    downs=%d ups=%d skipped=%d rebuilds=%d\n",
			f.LinkDownEvents, f.LinkUpEvents, f.SkippedEvents, f.Rebuilds)
		fmt.Printf("recovery  dropped=%d retransmitted=%d pending=%d, max drop-to-delivery %d cycles\n",
			f.Dropped, f.Retransmits, f.RetxPending, f.MaxRecovery)
	}
}
