// Package cliflags declares the flag groups the diam2 binaries share
// (-version, -scale/-seed, the -j/-cores scheduler, the profilers, the
// resumable -store, the -campaign worker, the -telemetry observers)
// together with the wiring behind each, so that a flag is declared and
// its subsystem opened in one place. Register methods declare on
// flag.CommandLine; call them before Parse.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/campaign"
	"diam2/internal/harness"
	"diam2/internal/sim"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

// checks are the value checks of the registered groups, which Parse
// runs; Register methods append to it before Parse.
var checks []func() error

// Parse declares -version and parses args, the command line without
// the program name, on flag.CommandLine; under -version it prints the
// build banner and the schema versions, and exits. A value a
// registered group refuses exits 2 with one line on stderr. Parse
// consumes the checks, so a program can declare its groups again on a
// fresh flag.CommandLine.
func Parse(prog string, args []string) {
	version := flag.Bool("version", false, "print build/version info and exit")
	flag.CommandLine.Parse(args) // ExitOnError: a parse error exits 2
	if *version {
		fmt.Println(buildinfo.Banner(prog))
		fmt.Printf("engine schema %d, store schema %d\n", sim.EngineSchema, store.Schema)
		os.Exit(0)
	}
	for _, check := range checks {
		if err := check(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(2)
		}
	}
	checks = nil
}

// Scale is the fidelity flag group: -scale and -seed.
type Scale struct {
	Name string
	Seed int64
}

// Register declares the group's flags.
func (s *Scale) Register() {
	flag.StringVar(&s.Name, "scale", "quick", "experiment scale: quick|medium|paper (binaries sharing a -store must agree on it)")
	flag.Int64Var(&s.Seed, "seed", 1, "base random seed (binaries sharing a -store must agree on it)")
}

// Resolve returns the named scale under the base seed and the preset
// set it runs on.
func (s Scale) Resolve() (harness.Scale, []harness.Preset, error) {
	sc, presets, err := harness.ScaleByName(s.Name)
	sc.Seed = s.Seed
	return sc, presets, err
}

// Sched is the parallelism flag group: -j fans independent sweep
// points out across a worker pool (results byte-identical for any -j),
// -cores shards the routers of each single simulation across threads
// of the sharded engine (its own determinism contract, keyed
// separately by -store; DESIGN.md §14), -progress reports each
// completed point on stderr.
type Sched struct {
	Jobs, Cores int
	Progress    bool
}

// Register declares the group's flags.
func (s *Sched) Register() {
	flag.IntVar(&s.Jobs, "j", 0, "worker-pool size: independent sweep points in parallel (0: the CPUs divided by -cores, 1: serial); an explicit value is used as given, and results do not depend on it")
	flag.IntVar(&s.Cores, "cores", 1, "threads *within* each simulation (sharded engine; 1: serial engine); orthogonal to -j, not bit-identical to serial")
	flag.BoolVar(&s.Progress, "progress", false, "report each completed sweep point on stderr")
	checks = append(checks, s.check)
}

// check refuses negative sizes, which harness.Sched would otherwise
// replace by its default.
func (s *Sched) check() error {
	if s.Jobs < 0 {
		return fmt.Errorf("-j %d: the worker-pool size cannot be negative (0: the CPUs divided by -cores)", s.Jobs)
	}
	if s.Cores < 0 {
		return fmt.Errorf("-cores %d: the thread count cannot be negative (1: the serial engine)", s.Cores)
	}
	return nil
}

// Wire sets the pool size, the engine shard count and the cancellation
// context on sc and, under -progress, the stderr progress line: done
// and total count points through the -j pool, the engine tag marks
// points that are themselves sharded across -cores threads, and
// suffix (may be nil) appends the caller's own state.
func (s Sched) Wire(ctx context.Context, sc *harness.Scale, suffix func() string) {
	sc.Cores = s.Cores
	sc.Sched.Workers, sc.Sched.Ctx = s.Jobs, ctx
	if !s.Progress {
		return
	}
	engTag := ""
	if s.Cores > 1 {
		engTag = fmt.Sprintf(" [engine: %d-core sharded]", s.Cores)
	}
	sc.Sched.OnPoint = func(done, total int, key string, elapsed time.Duration) {
		tail := ""
		if suffix != nil {
			tail = suffix()
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)%s%s\n", done, total, key, elapsed.Round(time.Millisecond), engTag, tail)
	}
}

// Profile is the profiler flag group: -cpuprofile, -memprofile and
// -traceprofile. A CPU profile says where time went; the execution
// trace shows worker goroutines blocking on the sharded engine's cycle
// barriers — shard imbalance appears as one worker computing while the
// rest park (`go tool trace`).
type Profile struct {
	CPU, Mem, Trace string
}

// Register declares the group's flags.
func (p *Profile) Register() {
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&p.Mem, "memprofile", "", "write a pprof allocation profile at exit to this file")
	flag.StringVar(&p.Trace, "traceprofile", "", "write a runtime execution trace of the run to this file (go tool trace; shows -cores barrier waits and -j worker scheduling)")
}

// Run runs work under the requested profilers: the CPU profile and the
// execution trace cover it, the allocation profile is written after
// it. It returns work's error, else the first profiler error.
func (p Profile) Run(work func() error) (err error) {
	var stops []func() error
	defer func() {
		for _, stop := range stops {
			if serr := stop(); err == nil {
				err = serr
			}
		}
	}()
	begin := func(path, what string, start func(io.Writer) error, end func()) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := start(f); err != nil {
			f.Close()
			return fmt.Errorf("start %s: %w", what, err)
		}
		stops = append(stops, func() error { end(); return f.Close() })
		return nil
	}
	if err := begin(p.CPU, "cpu profile", pprof.StartCPUProfile, pprof.StopCPUProfile); err != nil {
		return err
	}
	if err := begin(p.Trace, "execution trace", trace.Start, trace.Stop); err != nil {
		return err
	}
	if p.Mem != "" {
		stops = append(stops, func() error {
			return harness.WriteFile(p.Mem, func(w io.Writer) error {
				runtime.GC() // settle the heap so the profile shows retained memory
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
		})
	}
	return work()
}

// Store is the resumable-sweep flag group: -store and -force.
type Store struct {
	Dir   string
	Force bool
}

// Register declares the group's flags.
func (s *Store) Register() {
	flag.StringVar(&s.Dir, "store", "", "content-addressed result store: reuse completed sweep points, record the rest (resumes interrupted sweeps)")
	flag.BoolVar(&s.Force, "force", false, "with -store, recompute every point (fresh results still recorded)")
}

// Attach opens the store (creating it if needed; under the shared
// campaign lock when shared) and hangs it on sc.Sched. The returned
// func prints the run's store summary and closes the store. Without
// -store, Attach does nothing.
func (s Store) Attach(prog string, sc *harness.Scale, shared bool) (func(), error) {
	if s.Dir == "" {
		return func() {}, nil
	}
	open := store.OpenCLI
	if shared {
		open = store.OpenCLICampaign
	}
	st, err := open(s.Dir, prog)
	if err != nil {
		return nil, err
	}
	sc.Sched.Store, sc.Sched.Force = st, s.Force
	return func() {
		fmt.Fprintf(os.Stderr, "%s: %s\n", prog, st.Summary())
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: store close: %v\n", prog, err)
		}
	}, nil
}

// Campaign is the cooperating-worker flag group: -campaign and
// -worker-id. Policy is the worker's lease policy; binaries that
// expose its knobs bind their own flags to its fields.
type Campaign struct {
	On       bool
	WorkerID string
	Policy   campaign.Policy
}

// Register declares the group's flags.
func (c *Campaign) Register() {
	flag.BoolVar(&c.On, "campaign", false, "join -store as one of several cooperating worker processes (leases, heartbeats, retries; see README, \"Distributed campaigns\")")
	flag.StringVar(&c.WorkerID, "worker-id", "", "campaign worker ID, unique per live worker (default: host-pid)")
}

// Join registers this process as a worker of the campaign in storeDir
// and mounts /campaign for it on reg's mux (reg may be nil). Without
// -campaign it returns a nil worker. The caller closes the worker.
func (c Campaign) Join(prog, storeDir string, reg *telemetry.Registry) (*campaign.Worker, error) {
	if !c.On {
		return nil, nil
	}
	owner := c.WorkerID
	if owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		owner = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := campaign.NewWorker(campaign.DirFor(storeDir), owner, c.Policy)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: campaign worker %s joined %s\n", prog, owner, w.Dir())
	ServeCampaign(reg, w.Dir())
	return w, nil
}

// ServeCampaign mounts /campaign on reg's mux (a nil reg mounts
// nothing): each request answers a fresh scan of the campaign
// directory. Until it is mounted the path answers 404, so a plain
// sweep exposes no misleading empty campaign.
func ServeCampaign(reg *telemetry.Registry, dir string) {
	if reg == nil {
		return
	}
	reg.Handler().HandleFunc("/campaign", func(w http.ResponseWriter, _ *http.Request) {
		st, err := campaign.Scan(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		telemetry.WriteJSON(w, st)
	})
}

// Telemetry is the observability flag group: -telemetry, -trace-out,
// -http and, for binaries that aggregate one across points, -heatmap.
type Telemetry struct {
	On                      bool
	TraceOut, Heatmap, HTTP string
}

// Register declares the group's flags.
func (t *Telemetry) Register(heatmap bool) {
	flag.BoolVar(&t.On, "telemetry", false, "collect unified telemetry (congestion heatmap, latency split, flight recorder) for every simulated point")
	flag.StringVar(&t.TraceOut, "trace-out", "", "write the per-point flight-recorder traces as JSONL to this file (implies -telemetry)")
	flag.StringVar(&t.HTTP, "http", "", "serve /telemetry, /debug/vars and /debug/pprof on this address, e.g. :6060 (implies -telemetry)")
	if heatmap {
		flag.StringVar(&t.Heatmap, "heatmap", "", "write the aggregated congestion heatmap as CSV to this file (implies -telemetry)")
	}
}

// Collecting reports whether a flag other than -http asked for
// per-point collection (-http alone collects too, unless Setup is
// told to only serve).
func (t Telemetry) Collecting() bool {
	return t.On || t.TraceOut != "" || t.Heatmap != ""
}

// Setup wires a telemetry sink and, with -http, a live registry into
// the scale. It returns the sink (nil when telemetry is off), the
// registry (nil without -http) and the HTTP teardown func. serveOnly
// keeps the -http endpoints, /campaign included, but collects nothing:
// campaign workers rely on the store lookups collection bypasses.
func (t Telemetry) Setup(sc *harness.Scale, serveOnly bool) (*harness.TelemetrySink, *telemetry.Registry, func(), error) {
	shutdown := func() {}
	if !t.Collecting() && t.HTTP == "" {
		return nil, nil, shutdown, nil
	}
	var sink *harness.TelemetrySink
	if !serveOnly {
		sink = &harness.TelemetrySink{}
		sc.Telemetry.Sink = sink
	}
	var reg *telemetry.Registry
	if t.HTTP != "" {
		reg = telemetry.NewRegistry()
		if sink != nil {
			sc.Telemetry.Registry = reg
		}
		addr, stop, err := reg.Serve(t.HTTP)
		if err != nil {
			return nil, nil, nil, err
		}
		endpoints := "/telemetry"
		if serveOnly {
			endpoints = "/campaign and /telemetry"
		}
		fmt.Fprintf(os.Stderr, "telemetry: live at http://%s%s (pprof under /debug/pprof/)\n", addr, endpoints)
		shutdown = func() { _ = stop() }
	}
	return sink, reg, shutdown, nil
}

// Export writes the sink's event trace (-trace-out) and aggregated
// congestion heatmap (-heatmap); a nil sink exports nothing.
func (t Telemetry) Export(sink *harness.TelemetrySink) error {
	if sink == nil {
		return nil
	}
	write := func(path, what string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if err := harness.WriteFile(path, render); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: %s written to %s\n", what, path)
		return nil
	}
	if err := write(t.TraceOut, "event trace", sink.WriteTrace); err != nil {
		return err
	}
	return write(t.Heatmap, "congestion heatmap", sink.WriteHeatmapCSV)
}
