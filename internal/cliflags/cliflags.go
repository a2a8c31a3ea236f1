// Package cliflags declares the flag groups the diam2 binaries share
// (-version, -scale/-seed, the -j/-cores scheduler, the profilers, the
// resumable -store, the -campaign worker, the -telemetry observers)
// together with the wiring behind each, so that a flag is declared and
// its subsystem opened in one place. Each group's Register declares on
// the binary's own FlagSet, before Parse; the methods that report take
// that FlagSet and write to its Output() under its Name(). Nothing here
// exits the process or keeps package state, so a binary's
// run(args, stdout, stderr) can be called in-process.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/campaign"
	"diam2/internal/harness"
	"diam2/internal/sim"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

// Parse declares -version on fs, parses args there, flags after a
// positional argument included, and runs checks in order. It reports
// whether the program goes on and, if not, its exit status: 0 after -h,
// and after -version, which prints the build banner and the schema
// versions to stdout; 2 after a malformed flag, which fs reports, or a
// refused value, which goes to fs.Output() as one line. fs.Args() then
// holds the positional arguments followed, verbatim, by the arguments
// after a "--".
func Parse(fs *flag.FlagSet, args []string, stdout io.Writer, checks ...func() error) (status int, ok bool) {
	version := fs.Bool("version", false, "print build/version info and exit")
	var pos []string
	for {
		if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
			return 0, false
		} else if err != nil {
			return 2, false
		}
		rest := fs.Args()
		if len(rest) == 0 || terminated(fs, args[:len(args)-len(rest)]) {
			fs.Parse(append(append([]string{"--"}, pos...), rest...)) // sets only fs.Args()
			break
		}
		// flag stops at the first positional argument; go on after it.
		pos, args = append(pos, rest[0]), rest[1:]
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Banner(fs.Name()))
		fmt.Fprintf(stdout, "engine schema %d, store schema %d\n", sim.EngineSchema, store.Schema)
		return 0, false
	}
	for _, check := range checks {
		if err := check(); err != nil {
			fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
			return 2, false
		}
	}
	return 0, true
}

// terminated reports whether the flags fs parsed end at a "--"
// terminator: it steps over the value of each flag that takes one, so
// a "--" that is a flag's value ("-name --") is not taken for it.
func terminated(fs *flag.FlagSet, parsed []string) bool {
	i := 0
	for ; i < len(parsed) && parsed[i] != "--"; i++ {
		name, _, inline := strings.Cut(strings.TrimLeft(parsed[i], "-"), "=")
		if b, ok := fs.Lookup(name).Value.(interface{ IsBoolFlag() bool }); !inline && !(ok && b.IsBoolFlag()) {
			i++ // the flag's value
		}
	}
	return i < len(parsed)
}

// NoArgs is the Parse check of a binary that takes flags only: it
// refuses a positional argument, which the run would otherwise ignore.
func NoArgs(fs *flag.FlagSet) func() error {
	return func() error {
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
		}
		return nil
	}
}

// Status reports the error a run ended with, if any, as one line on
// fs.Output() and returns the exit status: 0 without an error, 3 for a
// campaign worker drained on request (the campaign goes on), else 1.
func Status(fs *flag.FlagSet, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	if errors.Is(err, campaign.ErrDrained) {
		return 3
	}
	return 1
}

// OnSignal runs drain at the first of sigs, after noting the signal on
// fs.Output() as "NAME: SIGNAL: draining" followed by what; stop
// releases the signals.
func OnSignal(fs *flag.FlagSet, what string, drain func(), sigs ...os.Signal) (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, sigs...)
	go func() {
		if sig, ok := <-sigc; ok {
			fmt.Fprintf(fs.Output(), "%s: %v: draining%s\n", fs.Name(), sig, what)
			drain()
		}
	}()
	return func() { signal.Stop(sigc); close(sigc) }
}

// Scale is the fidelity flag group: -scale and -seed.
type Scale struct {
	Name string
	Seed int64
}

// Register declares the group's flags on fs.
func (s *Scale) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Name, "scale", "quick", "experiment scale: quick|medium|paper (binaries sharing a -store must agree on it)")
	fs.Int64Var(&s.Seed, "seed", 1, "base random seed (binaries sharing a -store must agree on it)")
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

// Register declares the group's flags on fs.
func (s *Sched) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Jobs, "j", 0, "worker-pool size: independent sweep points in parallel (0: the CPUs divided by -cores, 1: serial); an explicit value is used as given, and results do not depend on it")
	fs.IntVar(&s.Cores, "cores", 1, "threads *within* each simulation (sharded engine; 1: serial engine); orthogonal to -j, not bit-identical to serial")
	fs.BoolVar(&s.Progress, "progress", false, "report each completed sweep point on stderr")
}

// Check refuses negative sizes, which harness.Sched would otherwise
// replace by its default; pass it to Parse.
func (s *Sched) Check() error {
	if s.Jobs < 0 {
		return fmt.Errorf("-j %d: the worker-pool size cannot be negative (0: the CPUs divided by -cores)", s.Jobs)
	}
	if s.Cores < 0 {
		return fmt.Errorf("-cores %d: the thread count cannot be negative (1: the serial engine)", s.Cores)
	}
	return nil
}

// Wire sets the pool size, the engine shard count and the cancellation
// context on sc and, under -progress, the progress line on fs.Output():
// done and total count points through the -j pool, the engine tag marks
// points that are themselves sharded across -cores threads, and suffix
// (may be nil) appends the caller's own state.
func (s Sched) Wire(ctx context.Context, fs *flag.FlagSet, sc *harness.Scale, suffix func() string) {
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
		fmt.Fprintf(fs.Output(), "[%d/%d] %s (%s)%s%s\n", done, total, key, elapsed.Round(time.Millisecond), engTag, tail)
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

// Register declares the group's flags on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof allocation profile at exit to this file")
	fs.StringVar(&p.Trace, "traceprofile", "", "write a runtime execution trace of the run to this file (go tool trace; shows -cores barrier waits and -j worker scheduling)")
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

// Register declares the group's flags on fs.
func (s *Store) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Dir, "store", "", "content-addressed result store: reuse completed sweep points, record the rest (resumes interrupted sweeps)")
	fs.BoolVar(&s.Force, "force", false, "with -store, recompute every point (fresh results still recorded)")
}

// Attach opens the store (creating it if needed; under the shared
// campaign lock when shared), its scan warnings on fs.Output(), and
// hangs it on sc.Sched. The returned func reports the run's store
// summary on fs.Output() and closes the store. Without -store, Attach
// does nothing.
func (s Store) Attach(fs *flag.FlagSet, sc *harness.Scale, shared bool) (func(), error) {
	if s.Dir == "" {
		return func() {}, nil
	}
	mode := store.Create
	if shared {
		mode = store.Shared
	}
	st, err := store.OpenCLI(s.Dir, fs.Name(), mode, fs.Output())
	if err != nil {
		return nil, err
	}
	sc.Sched.Store, sc.Sched.Force = st, s.Force
	return func() {
		fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), st.Summary())
		if err := st.Close(); err != nil {
			fmt.Fprintf(fs.Output(), "%s: store close: %v\n", fs.Name(), err)
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

// Register declares the group's flags on fs.
func (c *Campaign) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.On, "campaign", false, "join -store as one of several cooperating worker processes (leases, heartbeats, retries; see README, \"Distributed campaigns\")")
	fs.StringVar(&c.WorkerID, "worker-id", "", "campaign worker ID, unique per live worker (default: host-pid)")
}

// Join registers this process as a worker of the campaign in storeDir
// and mounts /campaign for it on reg's mux (reg may be nil), noting the
// join on fs.Output(). Without -campaign it returns a nil worker. The
// caller closes the worker.
func (c Campaign) Join(fs *flag.FlagSet, storeDir string, reg *telemetry.Registry) (*campaign.Worker, error) {
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
	fmt.Fprintf(fs.Output(), "%s: campaign worker %s joined %s\n", fs.Name(), owner, w.Dir())
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
	reg.HandleFunc("/campaign", func(w http.ResponseWriter, _ *http.Request) {
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

// Register declares the group's flags on fs.
func (t *Telemetry) Register(fs *flag.FlagSet, heatmap bool) {
	fs.BoolVar(&t.On, "telemetry", false, "collect unified telemetry (congestion heatmap, latency split, flight recorder) for every simulated point")
	fs.StringVar(&t.TraceOut, "trace-out", "", "write the per-point flight-recorder traces as JSONL to this file (implies -telemetry)")
	fs.StringVar(&t.HTTP, "http", "", "serve /telemetry, /debug/vars and /debug/pprof on this address, e.g. :6060 (implies -telemetry)")
	if heatmap {
		fs.StringVar(&t.Heatmap, "heatmap", "", "write the aggregated congestion heatmap as CSV to this file (implies -telemetry)")
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
// registry (nil without -http) and the HTTP teardown func; the live
// address goes to fs.Output(). serveOnly keeps the -http endpoints,
// /campaign included, but collects nothing: campaign workers rely on
// the store lookups collection bypasses.
func (t Telemetry) Setup(fs *flag.FlagSet, sc *harness.Scale, serveOnly bool) (*harness.TelemetrySink, *telemetry.Registry, func(), error) {
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
		endpoints := "/telemetry"
		if serveOnly {
			endpoints = "/campaign and /telemetry"
		}
		// The run's end drains the server: a request in flight gets a
		// second to finish.
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan error, 2) // nil once listening, then what Serve returns
		go func() {
			done <- reg.Serve(ctx, t.HTTP, time.Second, func(addr string) {
				fmt.Fprintf(fs.Output(), "telemetry: live at http://%s%s (pprof under /debug/pprof/)\n", addr, endpoints)
				done <- nil
			})
		}()
		if err := <-done; err != nil {
			stop()
			return nil, nil, nil, err
		}
		shutdown = func() {
			stop()
			if err := <-done; err != nil {
				fmt.Fprintf(fs.Output(), "telemetry: %v\n", err)
			}
		}
	}
	return sink, reg, shutdown, nil
}

// Export writes the sink's event trace (-trace-out) and aggregated
// congestion heatmap (-heatmap), noting each on fs.Output(); a nil sink
// exports nothing.
func (t Telemetry) Export(fs *flag.FlagSet, sink *harness.TelemetrySink) error {
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
		fmt.Fprintf(fs.Output(), "telemetry: %s written to %s\n", what, path)
		return nil
	}
	if err := write(t.TraceOut, "event trace", sink.WriteTrace); err != nil {
		return err
	}
	return write(t.Heatmap, "congestion heatmap", sink.WriteHeatmapCSV)
}
