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
// offer within 5%.
//
// The shared flag groups — -scale/-seed, -j/-cores/-progress, the
// three profilers, -store/-force and the -telemetry observers — are
// declared and documented in internal/cliflags; see also README,
// "Profiling the engine" and "Observability". The summary always
// includes the achieved simulation rate (cycles/s).
//
// Fault injection: -fail-links downs a random (seeded) set of router
// links at cycle -fail-at; -mtbf instead drives a continuous per-link
// failure/repair process. Dropped packets are retransmitted by their
// sources after -retx-timeout cycles with exponential backoff, and
// routing tables are rebuilt from the degraded graph after the
// -rebuild-latency window.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
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

// diam2sim's own flags; the shared groups are declared in main.
var (
	topoName = flag.String("topo", "mlfm", "topology: sf9|sf10|mlfm|oft|sf-small|mlfm-small|oft-small")
	algName  = flag.String("alg", "min", "routing: min|inr|a|ath")
	pattern  = flag.String("pattern", "uni", "synthetic pattern: uni|wc")
	exchange = flag.String("exchange", "", "closed-loop exchange instead: a2a|nn")
	load     = flag.Float64("load", 0.5, "offered load (fraction of injection bandwidth)")
	ni       = flag.Int("ni", 0, "override UGAL nI")
	c        = flag.Float64("c", 0, "override UGAL cost constant (c or cSF)")
	saturate = flag.Bool("saturate", false, "sweep the load ladder for the saturation load instead of one run")

	failLinks  = flag.Float64("fail-links", 0, "links to fail mid-run: a fraction (< 1) or a count (>= 1)")
	failAt     = flag.Int64("fail-at", -1, "cycle at which -fail-links links go down (default: end of warmup)")
	mtbf       = flag.Int64("mtbf", 0, "per-link mean cycles between failures (enables the random fault process)")
	mttr       = flag.Int64("mttr", 0, "per-link repair time in cycles for -mtbf (default: mtbf/10)")
	retxTO     = flag.Int("retx-timeout", 0, "override the retransmission timeout, cycles")
	rebuildLat = flag.Int("rebuild-latency", 0, "override the routing-table rebuild latency, cycles (negative forces instant rebuild)")
)

func main() {
	var (
		scale cliflags.Scale
		sched cliflags.Sched
		prof  cliflags.Profile
		// The store rides the experiment scheduler, so it covers the
		// -saturate ladder; a plain single run bypasses it.
		st  cliflags.Store
		tel cliflags.Telemetry
	)
	scale.Register()
	sched.Register()
	prof.Register()
	st.Register()
	tel.Register(false)
	cliflags.Parse("diam2sim")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := prof.Run(func() error { return run(ctx, scale, sched, tel, st) }); err != nil {
		fmt.Fprintln(os.Stderr, "diam2sim:", err)
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

func run(ctx context.Context, scale cliflags.Scale, sched cliflags.Sched, tel cliflags.Telemetry, st cliflags.Store) error {
	preset, err := findPreset(*topoName)
	if err != nil {
		return err
	}
	alg, err := harness.ParseAlg(*algName)
	if err != nil {
		return err
	}
	sc, _, err := scale.Resolve()
	if err != nil {
		return err
	}
	sc.Faults = harness.FaultPlan{
		FailAt:         *failAt,
		MTBF:           *mtbf,
		MTTR:           *mttr,
		RetxTimeout:    *retxTO,
		RebuildLatency: *rebuildLat,
	}
	if *failLinks >= 1 {
		sc.Faults.FailCount = int(*failLinks)
	} else {
		sc.Faults.FailFrac = *failLinks
	}
	sched.Wire(ctx, &sc, nil)
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
	if *ni > 0 {
		ugal.NI = *ni
	}
	if *c > 0 {
		if preset.SFStyle {
			ugal.CSF = *c
		} else {
			ugal.C = *c
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
	if cores := sched.Cores; cores > 1 {
		fmt.Printf("engine    sharded: %d partitions x %d worker threads per run (serial when -cores 1)\n", cores, cores)
	}

	if *exchange != "" {
		kind, err := harness.ParseExchange(*exchange)
		if err != nil {
			return err
		}
		ex, err := harness.BuildExchange(tp, kind, sc)
		if err != nil {
			return err
		}
		if kind == harness.ExNN {
			tor, _ := traffic.TorusFor(tp) // BuildExchange fitted the same torus
			fmt.Printf("torus     %dx%dx%d\n", tor.X, tor.Y, tor.Z)
		}
		res, eff, err := harness.RunExchange(tp, alg, ugal, ex, sc)
		if err != nil {
			return err
		}
		fmt.Printf("exchange  %s with %s: %d packets\n", ex.Name(), *algName, ex.TotalPackets())
		fmt.Printf("completed in %d cycles (%.1f us at 100 Gbps)\n", res.Cycles,
			sim.DefaultConfig(1).LatencySeconds(float64(res.Cycles))*1e6)
		fmt.Printf("effective throughput %.1f%% of injection bandwidth\n", eff*100)
		printResults(res)
		simRate()
		return report(tel, sink)
	}

	pat, err := harness.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	if *saturate {
		// The load ladder is a set of independent runs, so it goes
		// through the experiment scheduler and parallelizes with -j.
		sat, curve, err := harness.SaturationPoint(tp, alg, ugal, pat, harness.DefaultLoads(), 0.05, sc)
		if err != nil {
			return err
		}
		for _, p := range curve {
			fmt.Printf("load %.2f: throughput %.3f, avg latency %.0f cycles\n", p.Load, p.Throughput, p.AvgLatency)
		}
		fmt.Printf("saturation load (%s, %s): %.3f of injection bandwidth\n", *pattern, *algName, sat)
		simRate()
		fmt.Fprintf(os.Stderr, "diam2sim: %d points in %s wall time\n", len(curve), time.Since(start).Round(time.Millisecond))
		return report(tel, sink)
	}
	res, err := harness.RunSynthetic(tp, alg, ugal, pat, *load, sc)
	if err != nil {
		return err
	}
	fmt.Printf("synthetic %s with %s at load %.2f for %d cycles (warmup %d)\n",
		*pattern, *algName, *load, sc.Cycles, sc.Warmup)
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
