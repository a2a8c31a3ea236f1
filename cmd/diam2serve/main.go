// Command diam2serve answers design-space queries over HTTP: which
// (topology, routing, pattern, load) combination performs how, in
// milliseconds, from a three-tier resolution path — content-addressed
// store cache, analytic fluid estimate, and (when the escalation
// policy decides the point deserves fidelity) a background flit-level
// simulation the client polls via an escalation ticket.
//
// Usage:
//
//	diam2serve -http :8080 -store DIR [-scale quick] [-seed 1] \
//	    [-escalate-band 0.15] [-queue 64] [-esc-workers 1] \
//	    [-campaign] [-worker-id NAME] [-drain-timeout 30s]
//
// The server shares its store keys with diam2sweep: points a sweep or
// screening run already computed answer from cache byte-identically,
// and every fluid estimate or escalation the server computes is
// recorded for any later sweep. -scale and -seed must match the
// sweeps' for the keys to align.
//
// With -campaign the store is opened in shared (campaign) mode and
// escalations run under the lease protocol, so external `diam2sweep
// -campaign` workers against the same store directory can absorb the
// simulation load alongside the server's own workers.
//
// On SIGTERM/SIGINT the server drains: in-flight HTTP queries finish,
// queued escalations get -drain-timeout to complete (their results
// still land in the store), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"diam2/internal/cliflags"
	"diam2/internal/serve"
	"diam2/internal/telemetry"
)

// options is diam2serve's command line.
type options struct {
	httpAddr, storeDir string
	drainTO            time.Duration
	cfg                serve.Config // -escalate-band, -queue, -esc-workers

	scale cliflags.Scale    // must match the sweeps sharing the store
	camp  cliflags.Campaign // shared store lock; escalations run under the lease protocol
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run serves as args ask until SIGTERM or SIGINT, drains, and returns
// the exit status (cliflags.Parse, Status).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("diam2serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.httpAddr, "http", "", "listen address, e.g. :8080 (required)")
	fs.StringVar(&o.storeDir, "store", "", "content-addressed result store directory (required; created if absent)")
	fs.Float64Var(&o.cfg.Band, "escalate-band", 0.15, "escalation band around predicted saturation; 0 disables escalation")
	fs.IntVar(&o.cfg.QueueMax, "queue", 64, "admitted-query bound; excess answered 429 + Retry-After")
	fs.IntVar(&o.cfg.EscWorkers, "esc-workers", 1, "background escalation worker count")
	fs.DurationVar(&o.drainTO, "drain-timeout", 30*time.Second, "how long queued escalations get to finish on shutdown")
	o.scale.Register(fs)
	o.camp.Register(fs)
	if status, ok := cliflags.Parse(fs, args, stdout, cliflags.NoArgs(fs)); !ok {
		return status
	}
	if o.httpAddr == "" || o.storeDir == "" {
		fmt.Fprintln(stderr, "usage: diam2serve -http ADDR -store DIR [flags]")
		return 2
	}
	return cliflags.Status(fs, o.listen(fs, stderr))
}

// listen answers queries until a signal, then drains, reporting on
// stderr.
func (o *options) listen(fs *flag.FlagSet, stderr io.Writer) error {
	sc, presets, err := o.scale.Resolve()
	if err != nil {
		return err
	}

	closeStore, err := cliflags.Store{Dir: o.storeDir}.Attach(fs, &sc, o.camp.On)
	if err != nil {
		return err
	}
	defer closeStore()

	reg := telemetry.NewRegistry()
	worker, err := o.camp.Join(fs, o.storeDir, reg)
	if err != nil {
		return err
	}
	if worker != nil {
		defer func() { _ = worker.Close() }()
	}

	o.cfg.Presets, o.cfg.Scale, o.cfg.Store = presets, sc, sc.Sched.Store
	o.cfg.Registry, o.cfg.Campaign = reg, worker
	srv, err := serve.New(o.cfg)
	if err != nil {
		return err
	}

	srv.Register(reg)

	// Drain order matters: Serve stops accepting and finishes the
	// in-flight HTTP responses first, then the background escalations
	// get their budget.
	ctx, cancel := context.WithCancel(context.Background())
	defer cliflags.OnSignal(fs, fmt.Sprintf(" (in-flight queries finish, escalations get %s)", o.drainTO), cancel, syscall.SIGTERM, os.Interrupt)()
	err = reg.Serve(ctx, o.httpAddr, o.drainTO, func(addr string) {
		fmt.Fprintf(stderr, "diam2serve: serving design-space queries at http://%s/query (scale %s, %d presets, band %.2f)\n",
			addr, o.scale.Name, len(presets), o.cfg.Band)
	})
	if ctx.Err() == nil {
		return err
	}
	if err != nil {
		fmt.Fprintln(stderr, "diam2serve: http shutdown:", err)
	}
	escCtx, escCancel := context.WithTimeout(context.Background(), o.drainTO)
	defer escCancel()
	if err := srv.Close(escCtx); err != nil {
		fmt.Fprintln(stderr, "diam2serve: escalations cut off at drain timeout:", err)
	}
	fmt.Fprintln(stderr, "diam2serve: drained")
	return nil
}
