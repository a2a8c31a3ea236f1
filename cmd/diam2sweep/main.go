// Command diam2sweep regenerates the paper's figures: it runs the
// full parameter sweep behind a figure and prints the corresponding
// data table.
//
// Usage:
//
//	diam2sweep -fig 6a            # oblivious routing, uniform traffic
//	diam2sweep -fig 6b            # oblivious routing, worst-case
//	diam2sweep -fig 7             # SF-A sweeps (nI, cSF)
//	diam2sweep -fig 8             # SF-ATh sweeps
//	diam2sweep -fig 9             # MLFM-A sweeps
//	diam2sweep -fig 10            # OFT-A sweeps
//	diam2sweep -fig 11            # MLFM-ATh sweeps
//	diam2sweep -fig 12            # OFT-ATh sweeps
//	diam2sweep -fig 13            # all-to-all exchange
//	diam2sweep -fig 14            # nearest-neighbor exchange
//	diam2sweep -fig resilience    # throughput vs. failed-link fraction
//	diam2sweep -fig all           # every paper figure (not resilience)
//
// Screening tier: -screen answers the oblivious sweep grid with the
// analytic fluid model instead of the simulator — thousands of
// (topology, routing, pattern, load) points in seconds, stored under
// their own fluid-tier keys. -screen-grid N densifies the offered-load
// ladder to N evenly spaced loads. -escalate-band B then re-simulates
// just the points whose load lies within B of their predicted
// saturation at flit-level fidelity, and -screen-check fails the run
// if any escalated point's fluid estimate misses its recorded
// calibration tolerance (the CI smoke gate). See EXPERIMENTS.md, "Screening tier".
//
// By default the sweep runs at "quick" scale (reduced instances and
// run lengths, same code paths); pass -scale paper for the Section
// 4.1 configurations — expect hours of CPU time for the full set.
//
// Sweeps fan their independent simulation points out across the -j
// worker pool; results are byte-identical for any -j, because every
// point's random stream is derived from (seed, point key), never from
// scheduling order. Figure sweeps have many points, so prefer -j and
// leave -cores at 1. Ctrl-C cancels the sweep promptly. These flags,
// -scale/-seed and the three profilers (whose stderr summary reports
// sim-cycles and cycles/s) are the shared groups declared and
// documented in internal/cliflags.
//
// Resumable campaigns: -store DIR opens (creating if needed) a
// content-addressed result store and consults it before every sweep
// point — an interrupted campaign rerun with the same flags recomputes
// only the missing points and emits byte-identical output to a cold
// serial run. Keys cover the fully-resolved point configuration plus
// the engine schema version, so results from an older simulator are
// never reused. -force recomputes everything (and refreshes the
// store). Inspect stores with diam2store (list, verify, diff, gc).
// See EXPERIMENTS.md, "Resumable campaigns".
//
// Distributed campaigns: -campaign joins the -store directory as one
// of several cooperating worker processes. Sweep points are claimed
// through heartbeated lease files (a killed worker's leases expire
// after -lease-ttl and are reclaimed), failed points retry with
// exponential backoff and are quarantined after -retries attempts,
// -watchdog bounds a single attempt, and SIGTERM drains the worker
// gracefully (finish leased points, release the rest, exit code 3).
// Workers may be killed and restarted at any time; the merged store
// renders byte-identically to a single-process run. Observe a campaign
// with diam2campaign or the /campaign endpoint of -http. See README,
// "Distributed campaigns".
//
// Observability: -telemetry attaches a collector to every sweep point;
// -trace-out FILE exports the per-point flight-recorder events as
// JSONL, -heatmap FILE writes the aggregated per-link congestion
// heatmap as CSV, and -http ADDR serves /telemetry, /debug/vars and
// /debug/pprof live while the sweep runs. Telemetry output is
// byte-identical for any -j. See README, "Observability".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/campaign"
	"diam2/internal/cliflags"
	"diam2/internal/harness"
)

// options is diam2sweep's command line: its own flags and the shared
// groups declared in internal/cliflags.
type options struct {
	fig, plotDir, csvDir string
	ascii, screen        bool
	screenOpts

	scale cliflags.Scale
	sched cliflags.Sched
	prof  cliflags.Profile
	st    cliflags.Store
	camp  cliflags.Campaign
	tel   cliflags.Telemetry
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run sweeps what args ask for, writing tables to stdout and summaries
// to stderr, and returns the exit status (cliflags.Parse, Status).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("diam2sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.fig, "fig", "", "figure to regenerate: 6a|6b|7|8|9|10|11|12|13|14|resilience|all")
	fs.StringVar(&o.plotDir, "plotdir", "", "write SVG charts for figures with curves into this directory")
	fs.BoolVar(&o.ascii, "ascii", false, "also render ASCII charts to stdout")
	fs.StringVar(&o.csvDir, "csvdir", "", "also write each figure's data as CSV into this directory")

	fs.BoolVar(&o.screen, "screen", false, "screening tier: answer the oblivious sweep grid analytically (fluid model) instead of regenerating a figure")
	fs.IntVar(&o.grid, "screen-grid", 0, "with -screen, offered-load ladder size, evenly spaced in (0,1] (0: the default figure ladder)")
	fs.Float64Var(&o.band, "escalate-band", 0, "with -screen, re-simulate screened points within this relative band of their predicted saturation (0: screen only)")
	fs.BoolVar(&o.check, "screen-check", false, "with -screen and -escalate-band, fail if any escalated point's fluid estimate misses its recorded calibration tolerance")

	o.scale.Register(fs)
	o.sched.Register(fs)
	o.prof.Register(fs)
	o.st.Register(fs)
	o.camp.Register(fs)
	o.tel.Register(fs, true)
	fs.DurationVar(&o.camp.Policy.LeaseTTL, "lease-ttl", campaign.DefaultLeaseTTL, "campaign lease time-to-live: a worker silent this long loses its points to the others")
	fs.DurationVar(&o.camp.Policy.Watchdog, "watchdog", 0, "campaign per-attempt timeout: a point attempt running longer is cancelled, retried and eventually quarantined (0: off)")
	fs.IntVar(&o.camp.Policy.MaxAttempts, "retries", campaign.DefaultMaxAttempts, "campaign attempts per point (across all workers) before quarantine")
	fs.DurationVar(&o.camp.Policy.BaseBackoff, "backoff", campaign.DefaultBaseBackoff, "campaign base backoff after a failed attempt (doubles per attempt, jittered)")
	if status, ok := cliflags.Parse(fs, args, stdout, cliflags.NoArgs(fs), o.sched.Check, o.refuse); !ok {
		return status
	}
	if o.fig == "" && !o.screen {
		fs.Usage()
		return 2
	}
	return cliflags.Status(fs, o.prof.Run(func() error { return o.sweep(fs, args, stdout, stderr) }))
}

// refuse returns why the flag combination cannot run, if it cannot.
func (o *options) refuse() error {
	switch {
	case o.fig != "" && o.screen:
		return errors.New("-screen replaces -fig (the screening tier covers the whole oblivious grid); pass one or the other")
	case o.grid < 0:
		return fmt.Errorf("-screen-grid %d: the load ladder size cannot be negative (0: the default figure ladder)", o.grid)
	case o.camp.On && o.st.Dir == "":
		return errors.New("-campaign requires -store (workers coordinate through the store directory)")
	case o.camp.On && o.tel.Collecting():
		return errors.New("-campaign is incompatible with telemetry collection (telemetry bypasses the store lookups campaigns depend on; run a dedicated -telemetry sweep instead)")
	case o.sched.Cores > 1 && (o.tel.Collecting() || o.tel.HTTP != "" && !o.camp.On): // a campaign's -http only serves
		return fmt.Errorf("-cores %d with telemetry collection: only the serial engine feeds a collector; drop -cores or -telemetry, -trace-out, -heatmap and -http", o.sched.Cores)
	}
	return nil
}

// sweep runs the sweep o, parsed from args on fs, asks for; args go
// into a campaign's manifest.
func (o *options) sweep(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	// Ctrl-C cancels the sweep; SIGTERM, for a campaign worker, drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sc, presets, err := o.scale.Resolve()
	if err != nil {
		return err
	}
	if cores := o.sched.Cores; cores > 1 {
		fmt.Fprintf(stderr, "diam2sweep: sharded engine: %d threads per point (-cores), orthogonal to the -j point pool; results are keyed separately from serial runs\n", cores)
	}

	// Wire the experiment scheduler: worker pool, cancellation, and —
	// for the end-of-run summary — the summed simulation time of the
	// points, accumulated from the scheduler's progress callback.
	// Campaign progress lines append worker liveness, sampled at most
	// once a second (each sample scans the campaign directory).
	var worker *campaign.Worker
	var livMu sync.Mutex
	var livAt time.Time
	var livLine string
	liveness := func() string {
		if worker == nil {
			return ""
		}
		livMu.Lock()
		defer livMu.Unlock()
		if livLine == "" || time.Since(livAt) >= time.Second {
			n, oldest := worker.Liveness()
			livLine = fmt.Sprintf(" workers=%d oldest-hb=%s", n, oldest.Round(100*time.Millisecond))
			livAt = time.Now()
		}
		return livLine
	}
	o.sched.Wire(ctx, fs, &sc, liveness)
	var busy atomic.Int64
	progress := sc.Sched.OnPoint // nil without -progress
	sc.Sched.OnPoint = func(done, total int, key string, elapsed time.Duration) {
		busy.Add(int64(elapsed))
		if progress != nil {
			progress(done, total, key, elapsed)
		}
	}
	// Campaign workers serve the -http endpoints but collect nothing:
	// they rely on the store lookups that collection bypasses.
	sink, reg, telShutdown, err := o.tel.Setup(fs, &sc, o.camp.On)
	if err != nil {
		return err
	}
	defer telShutdown()
	closeStore, err := o.st.Attach(fs, &sc, o.camp.On)
	if err != nil {
		return err
	}
	defer closeStore()
	if sink != nil && sc.Sched.Store != nil {
		fmt.Fprintln(stderr, "diam2sweep: telemetry collection recomputes every point (store lookups bypassed, results still recorded)")
	}
	worker, err = o.camp.Join(fs, o.st.Dir, reg)
	if err != nil {
		return err
	}
	if worker != nil {
		defer func() { _ = worker.Close() }()
		sc.Sched.Campaign = worker
		// Record what this campaign computes (first submitter wins; a
		// coordinator's explicit submit may already have).
		_ = campaign.WriteManifest(worker.Dir(), campaign.Manifest{
			Name:      fmt.Sprintf("fig %s @ %s", o.fig, o.scale.Name),
			Args:      args,
			Created:   time.Now().UTC().Format(time.RFC3339),
			CreatedBy: "diam2sweep " + buildinfo.Version(),
		})
		// SIGTERM drains gracefully: leased points finish and store,
		// unclaimed points stay for the other workers. SIGINT (Ctrl-C)
		// keeps its hard-cancel meaning via the NotifyContext above.
		defer cliflags.OnSignal(fs, " (finishing leased points, releasing the rest)", worker.Drain, syscall.SIGTERM)()
	}
	workers := sc.Sched.PoolSize(sc.Cores)
	start := time.Now()
	defer func() {
		// point-time sums each point's own elapsed time; the ratio to
		// wall time is the achieved concurrency. (On a machine with
		// fewer cores than workers, time-slicing inflates per-point
		// elapsed, so this reads as occupancy, not as a true speedup.)
		wall := time.Since(start)
		summary := fmt.Sprintf("workers=%d wall=%s point-time=%s", workers,
			wall.Round(time.Millisecond), time.Duration(busy.Load()).Round(time.Millisecond))
		if wall > 0 {
			summary += fmt.Sprintf(" concurrency=%.2fx", float64(busy.Load())/float64(wall))
		}
		if cyc := harness.SimulatedCycles(); cyc > 0 && wall > 0 {
			summary += fmt.Sprintf(" sim-cycles=%d (%.0f cycles/s)", cyc, float64(cyc)/wall.Seconds())
		}
		fmt.Fprintln(stderr, "diam2sweep:", summary)
	}()

	if o.screen {
		if err := runScreen(sc, presets, o.screenOpts, o.csvDir, stdout, stderr); err != nil {
			return err
		}
		return o.exportTelemetry(fs, sink)
	}

	// The per-topology adaptive figures run on each family's representative.
	byFamily := harness.Representatives(presets)
	loads := harness.DefaultLoads()
	// The paper's sweep values; the medium reproduction trims the
	// grid to keep the full figure set to about an hour of CPU.
	sweepNI := []int{1, 2, 4, 8}
	sweepC := []float64{0.5, 1, 2, 4}
	if o.scale.Name == "medium" {
		loads = []float64{0.1, 0.5, 0.9, 1.0}
		sweepNI = []int{1, 4}
		sweepC = []float64{1, 2}
	}

	figName := ""
	render := func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		if err := t.Render(stdout); err != nil {
			return err
		}
		if err := t.WriteCSV(o.csvDir, "fig"+figName); err != nil {
			return err
		}
		svgs, err := t.WriteCharts(o.plotDir, "fig"+figName)
		if err != nil {
			return err
		}
		for i, ch := range t.Charts {
			if o.ascii {
				if err := ch.RenderASCII(stdout, 72, 18); err != nil {
					return err
				}
			}
			if svgs != nil {
				fmt.Fprintf(stdout, "wrote %s\n", svgs[i])
			}
		}
		return nil
	}
	adaptive := func(family string, kind harness.AlgKind, fixedNI int, fixedC float64) error {
		p, ok := byFamily[family]
		if !ok {
			return fmt.Errorf("no %s preset at this scale", family)
		}
		return render(harness.AdaptiveSweep(p, kind, sweepNI, sweepC, fixedNI, fixedC, loads, sc))
	}

	figs := []string{o.fig}
	if o.fig == "all" {
		figs = []string{"6a", "6b", "7", "8", "9", "10", "11", "12", "13", "14"}
	}
	for _, f := range figs {
		var err error
		figName = f
		switch f {
		case "6a":
			err = render(harness.Fig6Oblivious(presets, harness.PatUNI, loads, sc))
		case "6b":
			err = render(harness.Fig6Oblivious(presets, harness.PatWC, loads, sc))
		case "7":
			err = adaptive("SF", harness.AlgA, 4, 1)
		case "8":
			err = adaptive("SF", harness.AlgATh, 4, 1)
		case "9":
			err = adaptive("MLFM", harness.AlgA, 5, 2)
		case "10":
			err = adaptive("OFT", harness.AlgA, 1, 2)
		case "11":
			err = adaptive("MLFM", harness.AlgATh, 5, 2)
		case "12":
			err = adaptive("OFT", harness.AlgATh, 1, 2)
		case "13":
			err = render(harness.FigExchange(presets, harness.ExA2A, sc))
		case "14":
			err = render(harness.FigExchange(presets, harness.ExNN, sc))
		case "resilience":
			err = render(harness.FigResilience(presets,
				[]harness.AlgKind{harness.AlgMIN, harness.AlgINR, harness.AlgA},
				[]harness.PatternKind{harness.PatUNI, harness.PatWC},
				harness.DefaultFailureFractions(), 0.5, sc))
		default:
			err = fmt.Errorf("unknown figure %q", f)
		}
		if err != nil {
			return fmt.Errorf("fig %s: %w", f, err)
		}
	}
	return o.exportTelemetry(fs, sink)
}

// exportTelemetry prints the sweep's one-line telemetry summary to
// fs.Output() and writes the -trace-out and -heatmap files.
func (o *options) exportTelemetry(fs *flag.FlagSet, sink *harness.TelemetrySink) error {
	if sink != nil {
		tot := sink.Totals()
		fmt.Fprintf(fs.Output(), "telemetry: %d points, injected=%d delivered=%d dropped=%d link-flits=%d\n",
			tot.Points, tot.Injected, tot.Delivered, tot.Dropped, tot.LinkFlits)
	}
	return o.tel.Export(fs, sink)
}
