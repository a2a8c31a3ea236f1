// Command diam2store inspects and maintains content-addressed
// experiment stores (the -store directories written by diam2sweep,
// diam2sim -saturate and diam2report).
//
// Usage:
//
//	diam2store -store DIR list            # every live record with provenance
//	diam2store -store DIR stats           # per-tier counts, disk footprint, dedupe ratio
//	diam2store -store DIR verify          # full scan: checksums, corrupt lines, stale records
//	diam2store -store DIR diff OTHERDIR   # compare two stores' keys and payloads
//	diam2store -store DIR gc              # drop superseded and stale-engine records, compact segments
//	diam2store -store DIR gc -dry-run     # report what gc would do
//
// list, stats, verify and diff are read-only: they refuse a path that
// holds no store (a typo must not conjure an empty store that then
// "verifies" clean) and never modify the store they inspect. gc
// requires an existing store too. Unrecognized flags or stray arguments
// after a subcommand are errors, never silently ignored — "gc -dryrun"
// must not quietly run a real gc.
//
// list prints one line per live record: the point key, the abbreviated
// canonical key, the derived seed, the wall time of the producing run,
// and the engine schema plus build it ran under.
//
// stats summarizes the store for dashboards and capacity planning: live
// record counts split by result tier (flit-level sim vs analytic
// fluid), segment count and on-disk bytes, and the dedupe ratio (stored
// record lines per live key — above 1.0 means superseded duplicates a
// gc would reclaim).
//
// verify reopens the store from scratch, the way a resuming sweep
// would: it reports every segment, every record that failed its
// checksum or framing (a torn tail after a SIGKILL shows up here), and
// how many records a gc would drop because they were produced under a
// different engine schema. Exit status 1 if any corruption was found.
//
// diff compares live records by canonical key: points only in one
// store, and points in both whose payloads differ (which, for equal
// keys, indicates nondeterminism or a corrupted payload — equal keys
// must mean equal results).
//
// gc keeps the latest record per key, drops records whose engine
// schema differs from this binary's, and rewrites the survivors into a
// single fresh segment (tmp+rename; a kill mid-gc leaves a store the
// next open deduplicates).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diam2/internal/cliflags"
	"diam2/internal/sim"
	"diam2/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run runs the command line args, whose flags may follow the
// subcommand ("gc -dry-run"; "gc -dryrun" is refused before any store
// is touched), and returns the exit status (cliflags.Parse, Status).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diam2store", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("store", "", "store directory (required)")
	verbose := fs.Bool("v", false, "list: full canonical keys and payloads")
	dryRun := fs.Bool("dry-run", false, "gc: report without rewriting")
	if status, ok := cliflags.Parse(fs, args, stdout); !ok {
		return status
	}
	if *dir == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: diam2store -store DIR {list|stats|verify|diff OTHERDIR|gc}")
		return 2
	}
	return cliflags.Status(fs, subcommand(stdout, stderr, *dir, fs.Arg(0), fs.Args()[1:], *verbose, *dryRun))
}

// subcommand runs cmd with its positional arguments on the store in dir.
func subcommand(stdout, stderr io.Writer, dir, cmd string, args []string, verbose, dryRun bool) error {
	if cmd == "diff" {
		if len(args) != 1 {
			return fmt.Errorf("diff wants exactly one other store directory")
		}
		return diff(stdout, dir, args[0])
	}
	do, ok := map[string]func() error{
		"list":   func() error { return list(stdout, stderr, dir, verbose) },
		"stats":  func() error { return stats(stdout, dir) },
		"verify": func() error { return verify(stdout, dir) },
		"gc":     func() error { return gc(stdout, dir, dryRun) },
	}[cmd]
	switch {
	case !ok:
		return fmt.Errorf("unknown subcommand %q (list|stats|verify|diff|gc)", cmd)
	case len(args) > 0:
		// The others take no positional arguments; a stray token is a
		// mistake worth stopping on, not ignoring.
		return fmt.Errorf("%s takes no arguments (got %q)", cmd, args)
	}
	return do()
}

func list(w, stderr io.Writer, dir string, verbose bool) error {
	st, err := store.OpenCLIRead(dir, "diam2store")
	if err != nil {
		return err
	}
	defer st.Close()
	for _, rec := range st.Records() {
		fmt.Fprintf(w, "%-60s  key=%s seed=%d wall=%.1fms engine-schema=%d build=%s created=%s\n",
			rec.Point, store.ShortKey(rec.Key), rec.Seed, rec.WallMS, rec.EngineSchema, rec.Engine, rec.Created)
		if verbose {
			fmt.Fprintf(w, "  %s\n  %s\n", rec.Key, rec.Payload)
		}
	}
	fmt.Fprintln(stderr, "diam2store:", st.Summary())
	return nil
}

// stats summarizes one store read-only: per-tier live record counts,
// on-disk segment footprint, and the dedupe ratio.
func stats(w io.Writer, dir string) error {
	st, err := store.OpenCLIRead(dir, "diam2store")
	if err != nil {
		return err
	}
	defer st.Close()
	var sim, fluid, other int
	for _, rec := range st.Records() {
		switch rec.Tier {
		case store.TierSim:
			sim++
		case store.TierFluid:
			fluid++
		default:
			other++
		}
	}
	s := st.Stats()
	segs, bytes, err := st.SegmentStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "records   %d live (%d sim, %d fluid)\n", s.Records, sim, fluid)
	if other > 0 {
		fmt.Fprintf(w, "          %d under unrecognized tiers\n", other)
	}
	fmt.Fprintf(w, "segments  %d holding %s on disk\n", segs, formatBytes(bytes))
	ratio := 1.0
	if s.Records > 0 {
		ratio = float64(s.Total) / float64(s.Records)
	}
	fmt.Fprintf(w, "dedupe    %d stored record(s) for %d live key(s) (%.2fx; above 1.00x gc reclaims the surplus)\n",
		s.Total, s.Records, ratio)
	if s.Corrupt > 0 {
		fmt.Fprintf(w, "corrupt   %d record(s) skipped at open; run verify for detail\n", s.Corrupt)
	}
	return nil
}

// formatBytes renders a byte count at a human scale.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func verify(w io.Writer, dir string) error {
	rep, err := store.Verify(dir, sim.EngineSchema)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "segments  %d\n", len(rep.Segments))
	for _, s := range rep.Segments {
		fmt.Fprintf(w, "  %s\n", s)
	}
	fmt.Fprintf(w, "records   %d valid (%d live, %d superseded)\n", rep.Records, rep.Live, rep.Records-rep.Live)
	if rep.StaleEngine > 0 {
		fmt.Fprintf(w, "stale     %s under a different engine schema (current %d); gc reclaims them\n",
			store.FormatCount(rep.StaleEngine, "record"), sim.EngineSchema)
	}
	if len(rep.Corruptions) == 0 {
		fmt.Fprintln(w, "integrity ok: every record line passed framing and checksum")
		return nil
	}
	fmt.Fprintf(w, "integrity %s skipped:\n", store.FormatCount(len(rep.Corruptions), "corrupt record"))
	for _, c := range rep.Corruptions {
		fmt.Fprintf(w, "  %s\n", c)
	}
	return fmt.Errorf("%s found (resuming sweeps recompute those points; gc rewrites clean segments)",
		store.FormatCount(len(rep.Corruptions), "corrupt record"))
}

func diff(w io.Writer, dirA, dirB string) error {
	a, err := store.OpenCLIRead(dirA, "diam2store")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := store.OpenCLIRead(dirB, "diam2store")
	if err != nil {
		return err
	}
	defer b.Close()
	rep := store.Diff(a, b)
	for _, rec := range rep.OnlyA {
		fmt.Fprintf(w, "only %s: %s (key=%s)\n", dirA, rec.Point, store.ShortKey(rec.Key))
	}
	for _, rec := range rep.OnlyB {
		fmt.Fprintf(w, "only %s: %s (key=%s)\n", dirB, rec.Point, store.ShortKey(rec.Key))
	}
	for _, rec := range rep.Differ {
		fmt.Fprintf(w, "DIFFER: %s (key=%s) — same canonical key, different payload\n", rec.Point, store.ShortKey(rec.Key))
	}
	fmt.Fprintf(w, "%d equal, %d only in %s, %d only in %s, %d differ\n",
		rep.Equal, len(rep.OnlyA), dirA, len(rep.OnlyB), dirB, len(rep.Differ))
	if len(rep.Differ) > 0 {
		return fmt.Errorf("%s with equal keys but different payloads", store.FormatCount(len(rep.Differ), "record"))
	}
	return nil
}

func gc(w io.Writer, dir string, dryRun bool) error {
	st, err := store.OpenCLIExisting(dir, "diam2store")
	if err != nil {
		return err
	}
	defer st.Close()
	if dryRun {
		rep, err := store.Verify(dir, sim.EngineSchema)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "gc would keep %d record(s), drop %d superseded and %d stale-engine, and rewrite %d segment(s)\n",
			rep.Live-rep.StaleEngine, rep.Records-rep.Live, rep.StaleEngine, len(rep.Segments))
		return nil
	}
	rep, err := st.GC(sim.EngineSchema)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gc kept %d record(s); dropped %d superseded and %d stale-engine; rewrote %d segment(s) into 1\n",
		rep.Live, rep.DroppedDupes, rep.DroppedStale, rep.RemovedSegments)
	return nil
}
