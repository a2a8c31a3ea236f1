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
//	    [-escalate-band 0.15] [-grid 30] [-queue 64] [-esc-workers 1] \
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diam2/internal/cliflags"
	"diam2/internal/harness"
	"diam2/internal/serve"
	"diam2/internal/telemetry"
)

// diam2serve's own flags; the shared groups are declared in main.
var (
	httpAddr   = flag.String("http", "", "listen address, e.g. :8080 (required)")
	storeDir   = flag.String("store", "", "content-addressed result store directory (required; created if absent)")
	band       = flag.Float64("escalate-band", 0.15, "escalation band around predicted saturation; 0 disables escalation")
	grid       = flag.Int("grid", 30, "decision-ladder size for the escalation policy")
	queueMax   = flag.Int("queue", 64, "admitted-query bound; excess answered 429 + Retry-After")
	escWorkers = flag.Int("esc-workers", 1, "background escalation worker count")
	drainTO    = flag.Duration("drain-timeout", 30*time.Second, "how long queued escalations get to finish on shutdown")
)

func main() {
	var (
		scale cliflags.Scale    // must match the sweeps sharing the store
		camp  cliflags.Campaign // shared store lock; escalations run under the lease protocol
	)
	scale.Register()
	camp.Register()
	cliflags.Parse("diam2serve", os.Args[1:])
	if *httpAddr == "" || *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: diam2serve -http ADDR -store DIR [flags]")
		os.Exit(2)
	}
	if *grid < 0 {
		fmt.Fprintf(os.Stderr, "diam2serve: -grid %d: the decision-ladder size cannot be negative\n", *grid)
		os.Exit(2)
	}
	if err := run(scale, camp); err != nil {
		fmt.Fprintln(os.Stderr, "diam2serve:", err)
		os.Exit(1)
	}
}

func run(scale cliflags.Scale, camp cliflags.Campaign) error {
	sc, presets, err := scale.Resolve()
	if err != nil {
		return err
	}

	closeStore, err := cliflags.Store{Dir: *storeDir}.Attach("diam2serve", &sc, camp.On)
	if err != nil {
		return err
	}
	defer closeStore()

	reg := telemetry.NewRegistry()
	worker, err := camp.Join("diam2serve", *storeDir, reg)
	if err != nil {
		return err
	}
	if worker != nil {
		defer func() { _ = worker.Close() }()
	}

	srv, err := serve.New(serve.Config{
		Presets:    presets,
		Scale:      sc,
		Store:      sc.Sched.Store,
		Band:       *band,
		Loads:      harness.ScreenGridLoads(*grid),
		QueueMax:   *queueMax,
		EscWorkers: *escWorkers,
		Registry:   reg,
		Campaign:   worker,
	})
	if err != nil {
		return err
	}

	mux := reg.Handler()
	srv.Register(mux)

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *httpAddr, err)
	}
	httpSrv := &http.Server{Handler: mux}
	fmt.Fprintf(os.Stderr, "diam2serve: serving design-space queries at http://%s/query (scale %s, %d presets, band %.2f)\n",
		ln.Addr(), scale.Name, len(presets), *band)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "diam2serve: %v: draining (in-flight queries finish, escalations get %s)\n", sig, *drainTO)
	case err := <-errc:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain order matters: stop accepting and finish in-flight HTTP
	// responses first (Shutdown blocks until handlers return), then
	// give the background escalations their budget.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "diam2serve: http shutdown:", err)
	}
	if err := srv.Close(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "diam2serve: escalations cut off at drain timeout:", err)
	}
	fmt.Fprintln(os.Stderr, "diam2serve: drained")
	return nil
}
