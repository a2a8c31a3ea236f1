package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diam2/internal/sim"
	"diam2/internal/store"
)

// storeArgs drives run in-process and returns its exit status, stdout
// and stderr.
func storeArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// superseded writes a store holding one key twice, so that a real gc
// would drop a record.
func superseded(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := st.Put(store.Record{Key: "k", Point: "pt-k", Tier: store.TierSim, EngineSchema: sim.EngineSchema, Payload: []byte(`{"x":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// stored counts the record lines in the store at dir, superseded ones
// included.
func stored(t *testing.T, dir string) int {
	t.Helper()
	st, err := store.Open(dir, store.Options{Mode: store.ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Stats().Total
}

// TestTailArgsRecognizedFlags: the flags after a subcommand are parsed
// like the ones before it, in either spelling, and the positional
// arguments among them stay the subcommand's.
func TestTailArgsRecognizedFlags(t *testing.T) {
	dir := superseded(t)
	code, out, errOut := storeArgs("-store", dir, "list", "-v")
	if code != 0 || !strings.Contains(out, "\n  k\n  {\"x\":1}\n") {
		t.Errorf("list -v: exit %d, want the full key and payload:\n%s%s", code, out, errOut)
	}
	code, out, errOut = storeArgs("-store", dir, "gc", "--dry-run")
	if code != 0 || !strings.HasPrefix(out, "gc would keep 1 record(s), drop 1 superseded") || stored(t, dir) != 2 {
		t.Errorf("gc --dry-run: exit %d, %d records left:\n%s%s", code, stored(t, dir), out, errOut)
	}
	code, out, errOut = storeArgs("-store", dir, "diff", "-v", dir)
	if code != 0 || !strings.HasSuffix(out, "1 equal, 0 only in "+dir+", 0 only in "+dir+", 0 differ\n") {
		t.Errorf("diff -v DIR: exit %d:\n%s%s", code, out, errOut)
	}
}

// TestTailArgsRejectsUnknownFlags is the footgun the old code had: a
// typo like "gc -dryrun" fell through as an ignored positional and the
// gc ran for real. Any unrecognized flag after the subcommand must
// exit 2 before the store is touched.
func TestTailArgsRejectsUnknownFlags(t *testing.T) {
	dir := superseded(t)
	for _, typo := range []string{"-dryrun", "--dryrun", "-n", "--verbose"} {
		code, out, errOut := storeArgs("-store", dir, "gc", typo)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "flag provided but not defined: -"+strings.TrimLeft(typo, "-")+"\n") {
			t.Errorf("gc %s: exit %d, stdout %q, stderr %q; want exit 2 and the flag package's refusal", typo, code, out, errOut)
		}
	}
	if n := stored(t, dir); n != 2 {
		t.Errorf("a refused gc rewrote the store: %d records, want 2", n)
	}
}

// TestStats: per-tier counts, segment footprint, and the dedupe ratio
// over a store holding sim records, fluid records, and one superseded
// duplicate.
func TestStats(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	put := func(key, tier string) {
		t.Helper()
		if err := st.Put(store.Record{Key: key, Point: "pt-" + key, Tier: tier, Payload: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	put("sim-a", store.TierSim)
	put("sim-b", store.TierSim)
	put("fluid-a", store.TierFluid)
	put("sim-a", store.TierSim) // supersedes: 4 stored lines, 3 live keys
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := stats(&out, io.Discard, dir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"3 live (2 sim, 1 fluid)",
		"4 stored record(s) for 3 live key(s) (1.33x",
		"segments  1 holding ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output lacks %q:\n%s", want, got)
		}
	}
}

// TestScanWarningsOnRunStderr: a corrupt record the store skips at
// open is reported on the stderr writer run was given, not on the
// process's.
func TestScanWarningsOnRunStderr(t *testing.T) {
	dir := superseded(t)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, _, errOut := storeArgs("-store", dir, "list")
	if want := "diam2store: store: skipped corrupt record seg-000001.jsonl:3: "; code != 0 || !strings.HasPrefix(errOut, want) {
		t.Errorf("list over a corrupt record: exit %d, stderr %q; want exit 0 and a line starting %q", code, errOut, want)
	}
}

// TestStatsRefusesMissingStore: stats is read-only and must not
// conjure an empty store out of a typo'd path.
func TestStatsRefusesMissingStore(t *testing.T) {
	var out strings.Builder
	if err := stats(&out, io.Discard, t.TempDir()+"/nope"); err == nil {
		t.Fatal("stats on a nonexistent store succeeded")
	}
}

// TestRunRejectsStrayArguments: subcommands that take no positionals
// must error on them (before touching any store), and diff must insist
// on exactly one; a missing -store or subcommand is a usage error.
func TestRunRejectsStrayArguments(t *testing.T) {
	for _, cmd := range []string{"list", "stats", "verify", "gc"} {
		code, _, errOut := storeArgs("-store", "/nonexistent", cmd, "stray")
		if code != 1 || !strings.Contains(errOut, "takes no arguments") {
			t.Errorf("%s with a stray argument: exit %d, %q, want refusal", cmd, code, errOut)
		}
	}
	for _, args := range [][]string{{"diff"}, {"diff", "a", "b"}, {"nonsense"}} {
		if code, _, errOut := storeArgs(append([]string{"-store", "/nonexistent"}, args...)...); code != 1 || errOut == "" {
			t.Errorf("%v: exit %d, %q, want a refusal", args, code, errOut)
		}
	}
	if _, _, errOut := storeArgs("-store", "/nonexistent", "nonsense"); !strings.Contains(errOut, "unknown subcommand") {
		t.Errorf("unknown subcommand: %q", errOut)
	}
	for _, args := range [][]string{{"list"}, {"-store", "/nonexistent"}} {
		if code, _, errOut := storeArgs(args...); code != 2 || !strings.HasPrefix(errOut, "usage: diam2store -store DIR") {
			t.Errorf("%v: exit %d, %q, want the usage line and exit 2", args, code, errOut)
		}
	}
}
