// Command diam2campaign observes and coordinates distributed sweep
// campaigns (the lease-coordinated multi-worker mode of
// `diam2sweep -campaign`, see internal/campaign).
//
// Usage:
//
//	diam2campaign -store DIR status              # one-shot campaign status
//	diam2campaign -store DIR submit -name NAME [ARGS...]
//	diam2campaign -store DIR serve -http ADDR    # coordinator endpoints
//
// status prints the campaign manifest, every registered worker with
// its heartbeat age and liveness verdict, the outstanding leases, the
// failing points with their attempt counts, the quarantined (poison)
// points, and the store's live record count. It is read-only and works
// on a campaign that has not started yet (an empty store directory
// scans as an idle campaign).
//
// submit records what the campaign is meant to compute — a free-form
// name plus the diam2sweep argument list workers should run — into the
// campaign manifest. The first submission wins; submitting over an
// existing manifest is an error (a changed mind means a new store).
//
// serve runs a coordinator: it extends the telemetry registry's
// observability mux with campaign endpoints and blocks. GET /campaign
// returns the full status scan (workers, liveness, leases, failures,
// quarantine), GET /campaign/progress a compact progress summary
// including the store's live record count, and POST /campaign/submit
// accepts a JSON {"name": ..., "args": [...]} manifest. The
// coordinator holds no lock and owns no state: every response is
// assembled from the shared directory, so it can be restarted (or
// never started) without affecting the workers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/campaign"
	"diam2/internal/cliflags"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run runs the command line args, whose flags may follow the
// subcommand, and returns the exit status (cliflags.Parse, Status).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diam2campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("store", "", "store directory of the campaign (required)")
	httpAddr := fs.String("http", "", "serve: coordinator listen address, e.g. :6060")
	name := fs.String("name", "", "submit: campaign name")
	if status, ok := cliflags.Parse(fs, args, stdout); !ok {
		return status
	}
	if *dir == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: diam2campaign -store DIR {status|submit -name NAME [ARGS...]|serve -http ADDR}")
		return 2
	}
	return cliflags.Status(fs, subcommand(stdout, stderr, *dir, fs.Arg(0), fs.Args()[1:], *httpAddr, *name))
}

// subcommand runs cmd with its positional arguments on the campaign of
// the store in dir.
func subcommand(stdout, stderr io.Writer, dir, cmd string, args []string, httpAddr, name string) error {
	campDir := campaign.DirFor(dir)
	switch cmd {
	case "status":
		if len(args) > 0 {
			return fmt.Errorf("status takes no arguments (got %q)", args)
		}
		return status(stdout, dir, campDir)
	case "submit":
		if name == "" {
			return fmt.Errorf("submit needs -name")
		}
		return submit(stdout, campDir, name, args)
	case "serve":
		if len(args) > 0 {
			return fmt.Errorf("serve takes no arguments (got %q)", args)
		}
		if httpAddr == "" {
			return fmt.Errorf("serve needs -http ADDR")
		}
		return serve(stderr, dir, campDir, httpAddr)
	default:
		return fmt.Errorf("unknown subcommand %q (status|submit|serve)", cmd)
	}
}

// liveRecords counts the store's live records without taking its lock
// or logging scan warnings (the store may be mid-append; a torn tail
// just undercounts by one until the writer finishes).
func liveRecords(dir string) (int, error) {
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	return st.Len(), nil
}

func status(w io.Writer, storeDir, campDir string) error {
	st, err := campaign.Scan(campDir)
	if err != nil {
		return err
	}
	if st.Manifest != nil {
		fmt.Fprintf(w, "campaign  %s (submitted %s)\n", st.Manifest.Name, st.Manifest.Created)
		if len(st.Manifest.Args) > 0 {
			fmt.Fprintf(w, "args      %v\n", st.Manifest.Args)
		}
	} else {
		fmt.Fprintln(w, "campaign  (no manifest submitted)")
	}
	if n, err := liveRecords(storeDir); err == nil {
		fmt.Fprintf(w, "store     %s\n", store.FormatCount(n, "live record"))
	} else {
		fmt.Fprintf(w, "store     not readable yet (%v)\n", err)
	}
	fmt.Fprintf(w, "workers   %d registered, %d live\n", len(st.Workers), st.LiveWorkers())
	for _, wk := range st.Workers {
		verdict := "LIVE"
		if !wk.Live {
			verdict = "DEAD (leases reclaimable)"
		}
		fmt.Fprintf(w, "  %-24s pid=%-7d host=%-12s heartbeat %.1fs ago  %s\n", wk.Owner, wk.PID, wk.Host, wk.HeartbeatAge, verdict)
	}
	fmt.Fprintf(w, "leases    %d outstanding\n", len(st.Leases))
	for _, l := range st.Leases {
		fmt.Fprintf(w, "  %-60s owner=%s age=%.1fs\n", l.Point, l.Owner, l.Age)
	}
	failures := func(fs []campaign.Failure) {
		for _, f := range fs {
			last, _, _ := strings.Cut(f.LastErr, "\n") // panic payloads carry stacks
			fmt.Fprintf(w, "  %-60s attempts=%d last: %s\n", f.Point, f.Attempts, last)
		}
	}
	if len(st.Failed) > 0 {
		fmt.Fprintf(w, "failing   %d point(s) still retrying\n", len(st.Failed))
		failures(st.Failed)
	}
	if len(st.Quarantined) > 0 {
		fmt.Fprintf(w, "QUARANTINED %d poison point(s) (full logs under %s/quarantine)\n", len(st.Quarantined), campDir)
		failures(st.Quarantined)
	}
	return nil
}

func submit(w io.Writer, campDir, name string, args []string) error {
	m := campaign.Manifest{
		Name:      name,
		Args:      args,
		Created:   time.Now().UTC().Format(time.RFC3339),
		CreatedBy: "diam2campaign " + buildinfo.Version(),
	}
	if err := campaign.WriteManifest(campDir, m); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("campaign already submitted (manifest exists; a different campaign needs a fresh store)")
		}
		return err
	}
	fmt.Fprintf(w, "submitted %q to %s\n", name, campDir)
	return nil
}

// progressBody is the /campaign/progress response: the compact numbers
// a dashboard polls, without the per-worker detail of /campaign.
type progressBody struct {
	Time        string `json:"time"`
	Records     int    `json:"records"` // live results in the store (-1: store unreadable)
	Workers     int    `json:"workers"`
	LiveWorkers int    `json:"live_workers"`
	Leases      int    `json:"leases"`
	Failed      int    `json:"failed"`
	Quarantined int    `json:"quarantined"`
}

// coordinatorMux assembles the coordinator's HTTP surface: the
// telemetry registry's observability mux (with /campaign attached)
// plus the coordinator-only progress and submit endpoints, mounted on
// the same route-enumerating mux so the "/" index lists them all.
// Factored out of serve so tests can drive it without a listener.
func coordinatorMux(storeDir, campDir string) *telemetry.Mux {
	reg := telemetry.NewRegistry()
	cliflags.ServeCampaign(reg, campDir)
	mux := reg.Handler()
	mux.HandleFunc("/campaign/progress", func(w http.ResponseWriter, req *http.Request) {
		st, err := campaign.Scan(campDir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body := progressBody{
			Time:        st.Time,
			Workers:     len(st.Workers),
			LiveWorkers: st.LiveWorkers(),
			Leases:      len(st.Leases),
			Failed:      len(st.Failed),
			Quarantined: len(st.Quarantined),
		}
		if n, err := liveRecords(storeDir); err == nil {
			body.Records = n
		} else {
			body.Records = -1
		}
		telemetry.WriteJSON(w, body)
	})
	mux.HandleFunc("/campaign/submit", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST a JSON {\"name\": ..., \"args\": [...]} body", http.StatusMethodNotAllowed)
			return
		}
		var m campaign.Manifest
		if err := json.NewDecoder(req.Body).Decode(&m); err != nil {
			http.Error(w, "bad manifest: "+err.Error(), http.StatusBadRequest)
			return
		}
		if m.Name == "" {
			http.Error(w, "manifest needs a name", http.StatusBadRequest)
			return
		}
		m.Created = time.Now().UTC().Format(time.RFC3339)
		m.CreatedBy = "diam2campaign " + buildinfo.Version()
		if err := campaign.WriteManifest(campDir, m); err != nil {
			if errors.Is(err, fs.ErrExist) {
				http.Error(w, "campaign already submitted", http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "submitted %q\n", m.Name)
	})
	return mux
}

func serve(stderr io.Writer, storeDir, campDir, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	fmt.Fprintf(stderr, "diam2campaign: coordinator at http://%s/campaign (progress, submit; telemetry mux underneath)\n", ln.Addr())
	return (&http.Server{Handler: coordinatorMux(storeDir, campDir)}).Serve(ln)
}
