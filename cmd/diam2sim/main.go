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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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

// options is diam2sim's command line: its own flags and the shared
// groups declared in internal/cliflags.
type options struct {
	topo, alg, pattern, exchange string
	load, c, failLinks           float64
	ni                           int
	saturate                     bool
	faults                       harness.FaultPlan // -fail-at, -mtbf, -mttr and the overrides; -fail-links sets its size

	scale cliflags.Scale
	sched cliflags.Sched
	prof  cliflags.Profile
	// The store rides the experiment scheduler, so it covers the
	// -saturate ladder; a plain single run bypasses it.
	st  cliflags.Store
	tel cliflags.Telemetry
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run simulates what args ask for, writing results to stdout and
// summaries to stderr, and returns the exit status (cliflags.Parse,
// Status).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("diam2sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.topo, "topo", "mlfm", "topology: sf9|sf10|mlfm|oft|sf-small|mlfm-small|oft-small")
	fs.StringVar(&o.alg, "alg", "min", "routing: min|inr|a|ath")
	fs.StringVar(&o.pattern, "pattern", "uni", "synthetic pattern: uni|wc")
	fs.StringVar(&o.exchange, "exchange", "", "closed-loop exchange instead: a2a|nn")
	fs.Float64Var(&o.load, "load", 0.5, "offered load (fraction of injection bandwidth)")
	fs.IntVar(&o.ni, "ni", 0, "override UGAL nI")
	fs.Float64Var(&o.c, "c", 0, "override UGAL cost constant (c or cSF)")
	fs.BoolVar(&o.saturate, "saturate", false, "sweep the load ladder for the saturation load instead of one run")

	fs.Float64Var(&o.failLinks, "fail-links", 0, "links to fail mid-run: a fraction (< 1) or a count (>= 1)")
	fs.Int64Var(&o.faults.FailAt, "fail-at", -1, "cycle at which -fail-links links go down (default: end of warmup)")
	fs.Int64Var(&o.faults.MTBF, "mtbf", 0, "per-link mean cycles between failures (enables the random fault process)")
	fs.Int64Var(&o.faults.MTTR, "mttr", 0, "per-link repair time in cycles for -mtbf (default: mtbf/10)")
	fs.IntVar(&o.faults.RetxTimeout, "retx-timeout", 0, "override the retransmission timeout, cycles")
	fs.IntVar(&o.faults.RebuildLatency, "rebuild-latency", 0, "override the routing-table rebuild latency, cycles (negative forces instant rebuild)")

	o.scale.Register(fs)
	o.sched.Register(fs)
	o.prof.Register(fs)
	o.st.Register(fs)
	o.tel.Register(fs, false)
	if status, ok := cliflags.Parse(fs, args, stdout, o.sched.Check, o.check); !ok {
		return status
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return cliflags.Status(fs, o.prof.Run(func() error { return o.simulate(ctx, fs, stdout, stderr) }))
}

// check refuses the values a run would otherwise clamp, ignore or
// replace by a default, and the fault flags the run would not read.
// The load bound is the one diam2serve enforces.
func (o *options) check() error {
	if !(o.load > 0 && o.load <= 1) {
		return fmt.Errorf("-load %v: the offered load must be in (0, 1]", o.load)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"fail-links", o.failLinks}, {"mtbf", float64(o.faults.MTBF)}, {"mttr", float64(o.faults.MTTR)},
		{"retx-timeout", float64(o.faults.RetxTimeout)}, {"ni", float64(o.ni)}, {"c", o.c},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("-%s %v: cannot be negative (0 keeps the default)", f.name, f.v)
		}
	}
	fp, burst, mtbf := o.faults, o.failLinks > 0, o.faults.MTBF > 0
	switch {
	case o.failLinks >= 1 && o.failLinks != math.Trunc(o.failLinks):
		return fmt.Errorf("-fail-links %v: a count of links (>= 1) must be a whole number", o.failLinks)
	case burst && mtbf:
		return fmt.Errorf("-fail-links %v with -mtbf %d: the -mtbf process replaces the one-shot burst; pass one or the other", o.failLinks, fp.MTBF)
	case fp.FailAt != -1 && !burst:
		return fmt.Errorf("-fail-at %d: only the -fail-links burst has a failure cycle", fp.FailAt)
	case fp.MTTR != 0 && !mtbf:
		return fmt.Errorf("-mttr %d: only the -mtbf process repairs links", fp.MTTR)
	case (fp.RetxTimeout != 0 || fp.RebuildLatency != 0) && !burst && !mtbf:
		return errors.New("-retx-timeout and -rebuild-latency tune the recovery from faults: pass -fail-links or -mtbf")
	}
	return nil
}

func findPreset(name string) (harness.Preset, error) {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
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

// simulate runs what o, parsed on fs, asks for: one synthetic run, a
// saturation ladder or one exchange.
func (o *options) simulate(ctx context.Context, fs *flag.FlagSet, stdout, stderr io.Writer) error {
	preset, err := findPreset(o.topo)
	if err != nil {
		return err
	}
	alg, err := harness.ParseAlg(o.alg)
	if err != nil {
		return err
	}
	sc, _, err := o.scale.Resolve()
	if err != nil {
		return err
	}
	sc.Faults = o.faults
	if o.failLinks >= 1 {
		sc.Faults.FailCount = int(o.failLinks)
	} else {
		sc.Faults.FailFrac = o.failLinks
	}
	o.sched.Wire(ctx, fs, &sc, nil)
	sink, _, telShutdown, err := o.tel.Setup(fs, &sc, false)
	if err != nil {
		return err
	}
	defer telShutdown()
	closeStore, err := o.st.Attach(fs, &sc, false)
	if err != nil {
		return err
	}
	defer closeStore()
	ugal := preset.BestAdaptive
	if o.ni > 0 {
		ugal.NI = o.ni
	}
	if o.c > 0 {
		if preset.SFStyle {
			ugal.CSF = o.c
		} else {
			ugal.C = o.c
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
			fmt.Fprintf(stderr, "engine    %d cycles simulated in %s (%.0f cycles/s)\n",
				cyc, wall.Round(time.Millisecond), float64(cyc)/wall.Seconds())
		}
	}
	cost := topo.CostOf(tp)
	fmt.Fprintf(stdout, "topology  %s: N=%d R=%d radix=%d (%.2f ports, %.2f links per node)\n",
		preset.Name, cost.Nodes, cost.Routers, tp.Radix(), cost.PortsPerNode, cost.LinksPerNode)
	if cores := o.sched.Cores; cores > 1 {
		fmt.Fprintf(stdout, "engine    sharded: %d partitions x %d worker threads per run (serial when -cores 1)\n", cores, cores)
	}

	if o.exchange != "" {
		kind, err := harness.ParseExchange(o.exchange)
		if err != nil {
			return err
		}
		ex, err := harness.BuildExchange(tp, kind, sc)
		if err != nil {
			return err
		}
		if kind == harness.ExNN {
			tor, _ := traffic.TorusFor(tp) // BuildExchange fitted the same torus
			fmt.Fprintf(stdout, "torus     %dx%dx%d\n", tor.X, tor.Y, tor.Z)
		}
		res, eff, err := harness.RunExchange(tp, alg, ugal, ex, sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exchange  %s with %s: %d packets\n", ex.Name(), o.alg, ex.TotalPackets())
		fmt.Fprintf(stdout, "completed in %d cycles (%.1f us at 100 Gbps)\n", res.Cycles,
			sim.DefaultConfig(1).LatencySeconds(float64(res.Cycles))*1e6)
		fmt.Fprintf(stdout, "effective throughput %.1f%% of injection bandwidth\n", eff*100)
		printResults(stdout, res)
		simRate()
		return report(stdout, fs, o.tel, sink)
	}

	pat, err := harness.ParsePattern(o.pattern)
	if err != nil {
		return err
	}
	if o.saturate {
		// The load ladder is a set of independent runs, so it goes
		// through the experiment scheduler and parallelizes with -j.
		sat, ladder, err := harness.SaturationPoint(tp, alg, ugal, pat, harness.DefaultLoads(), 0.05, sc)
		if err != nil {
			return err
		}
		for i, res := range ladder.Runs {
			fmt.Fprintf(stdout, "load %.2f: throughput %.3f, avg latency %.0f cycles\n", ladder.X[i], res.Throughput, res.AvgLatency)
		}
		fmt.Fprintf(stdout, "saturation load (%s, %s): %.3f of injection bandwidth\n", o.pattern, o.alg, sat)
		simRate()
		fmt.Fprintf(stderr, "diam2sim: %d points in %s wall time\n", len(ladder.Runs), time.Since(start).Round(time.Millisecond))
		return report(stdout, fs, o.tel, sink)
	}
	res, err := harness.RunSynthetic(tp, alg, ugal, pat, o.load, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "synthetic %s with %s at load %.2f for %d cycles (warmup %d)\n",
		o.pattern, o.alg, o.load, sc.Cycles, sc.Warmup)
	fmt.Fprintf(stdout, "delivered throughput %.1f%% of injection bandwidth\n", res.Throughput*100)
	printResults(stdout, res)
	simRate()
	return report(stdout, fs, o.tel, sink)
}

func printResults(w io.Writer, res sim.Results) {
	fmt.Fprintf(w, "packets   generated=%d injected=%d delivered=%d\n", res.Generated, res.Injected, res.Delivered)
	fmt.Fprintf(w, "latency   avg=%.0f p99=%.0f max=%.0f cycles (network-only avg %.0f)\n",
		res.AvgLatency, res.P99Latency, res.MaxLatency, res.AvgNetLatency)
	fmt.Fprintf(w, "routing   avg hops %.2f, %.1f%% indirect\n", res.AvgHops, res.IndirectFrac*100)
	f := res.Faults
	if f.LinkDownEvents+f.SkippedEvents > 0 {
		fmt.Fprintf(w, "faults    downs=%d ups=%d skipped=%d rebuilds=%d\n",
			f.LinkDownEvents, f.LinkUpEvents, f.SkippedEvents, f.Rebuilds)
		fmt.Fprintf(w, "recovery  dropped=%d retransmitted=%d pending=%d, max drop-to-delivery %d cycles\n",
			f.Dropped, f.Retransmits, f.RetxPending, f.MaxRecovery)
	}
}
