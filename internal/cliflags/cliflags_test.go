package cliflags

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/harness"
	"diam2/internal/telemetry"
)

// parse declares a group's flags on a fresh FlagSet named "test",
// parses args there and returns it.
func parse(t *testing.T, register func(*flag.FlagSet), args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestStoreAttach(t *testing.T) {
	var st Store
	fs := parse(t, st.Register)
	sc := harness.QuickScale()
	closeStore, err := st.Attach(fs, &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	closeStore()
	if sc.Sched.Store != nil || sc.Sched.Force {
		t.Errorf("no -store: Attach set Store=%v Force=%v, want a no-op", sc.Sched.Store, sc.Sched.Force)
	}

	dir := t.TempDir()
	fs = parse(t, st.Register, "-store", dir, "-force")
	var out bytes.Buffer
	fs.SetOutput(&out)
	closeStore, err = st.Attach(fs, &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sched.Store == nil || !sc.Sched.Force {
		t.Errorf("-store -force: Attach left Store=%v Force=%v", sc.Sched.Store, sc.Sched.Force)
	}
	// The plain open holds the exclusive lock until the closer runs.
	var other harness.Scale
	if _, err := st.Attach(fs, &other, false); err == nil {
		t.Error("a second exclusive open of a held store succeeded")
	}
	closeStore()
	if want := "test: store: 0 reused, 0 computed"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("closer reported %q, want a line starting %q", out.String(), want)
	}
	closeStore, err = st.Attach(fs, &other, true)
	if err != nil {
		t.Fatalf("reopening after the closer ran: %v", err)
	}
	closeStore()
}

func TestCampaignJoin(t *testing.T) {
	var c Campaign
	fs := parse(t, c.Register)
	if w, err := c.Join(fs, t.TempDir(), nil); w != nil || err != nil {
		t.Fatalf("no -campaign: Join = %v, %v, want nil, nil", w, err)
	}

	// /campaign is mounted on the registry's one mux by Join: 404 before,
	// then a fresh campaign.Scan as JSON, listed on the "/" index.
	fs = parse(t, c.Register, "-campaign")
	var out bytes.Buffer
	fs.SetOutput(&out)
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if got, _ := get("/campaign"); got != http.StatusNotFound {
		t.Fatalf("/campaign before Join answered %d, want 404", got)
	}
	storeDir := t.TempDir()
	w, err := c.Join(fs, storeDir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if want := "test: campaign worker " + w.Owner() + " joined "; !strings.HasPrefix(out.String(), want) {
		t.Errorf("Join reported %q, want a line starting %q", out.String(), want)
	}
	host, _ := os.Hostname()
	if want := fmt.Sprintf("%s-%d", host, os.Getpid()); host != "" && w.Owner() != want {
		t.Errorf("default owner %q, want host-pid %q", w.Owner(), want)
	}
	code, body := get("/campaign")
	if code != http.StatusOK {
		t.Fatalf("/campaign after Join answered %d, want 200", code)
	}
	var got campaign.Status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/campaign not JSON: %v (%q)", err, body)
	}
	if len(got.Workers) != 1 || got.Workers[0].Owner != w.Owner() {
		t.Errorf("/campaign workers = %+v, want the joined worker %s", got.Workers, w.Owner())
	}
	if _, index := get("/"); !strings.Contains(index, "/campaign") {
		t.Errorf("index does not list /campaign:\n%s", index)
	}

	fs = parse(t, c.Register, "-campaign", "-worker-id", "w7")
	fs.SetOutput(io.Discard)
	named, err := c.Join(fs, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer named.Close()
	if named.Owner() != "w7" {
		t.Errorf("-worker-id w7 joined as %q", named.Owner())
	}
}

func TestTelemetrySetup(t *testing.T) {
	var tel Telemetry
	register := func(fs *flag.FlagSet) { tel.Register(fs, true) }
	fs := parse(t, register)
	sc := harness.QuickScale()
	sink, reg, shutdown, err := tel.Setup(fs, &sc, false)
	if err != nil || sink != nil || reg != nil || sc.Telemetry.Sink != nil {
		t.Fatalf("telemetry off: Setup = %v, %v, %v", sink, reg, err)
	}
	shutdown()

	// -http on a campaign worker: endpoints, no collection.
	fs = parse(t, register, "-http", "127.0.0.1:0")
	var out bytes.Buffer
	fs.SetOutput(&out)
	sink, reg, shutdown, err = tel.Setup(fs, &sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if reg == nil || sink != nil || sc.Telemetry.Sink != nil {
		t.Errorf("serveOnly: sink=%v reg=%v, want a registry and no sink", sink, reg)
	}
	if tel.Collecting() {
		t.Error("-http alone reports Collecting")
	}
	if want := "telemetry: live at http://127.0.0.1:"; !strings.HasPrefix(out.String(), want) {
		t.Errorf("Setup reported %q, want a line starting %q", out.String(), want)
	}

	// -heatmap implies collection, and Export writes the file.
	heat := t.TempDir() + "/heat.csv"
	fs = parse(t, register, "-heatmap", heat)
	out.Reset()
	fs.SetOutput(&out)
	sink, reg, _, err = tel.Setup(fs, &sc, false)
	if err != nil || sink == nil || reg != nil || sc.Telemetry.Sink != sink || !tel.Collecting() {
		t.Fatalf("-heatmap: Setup = %v, %v, %v", sink, reg, err)
	}
	if err := tel.Export(fs, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(heat); err != nil {
		t.Errorf("Export wrote no heatmap: %v", err)
	}
	if want := "telemetry: congestion heatmap written to " + heat + "\n"; out.String() != want {
		t.Errorf("Export reported %q, want %q", out.String(), want)
	}
}

func TestScaleResolve(t *testing.T) {
	var s Scale
	parse(t, s.Register)
	sc, presets, err := s.Resolve()
	if err != nil || sc.Label != "quick" || sc.Seed != 1 || len(presets) != len(harness.SmallPresets()) {
		t.Fatalf("defaults resolved to %s seed %d, %d presets, %v", sc.Label, sc.Seed, len(presets), err)
	}
	parse(t, s.Register, "-scale", "paper", "-seed", "7")
	sc, presets, err = s.Resolve()
	if err != nil || !sc.Paper || sc.Seed != 7 || presets[0].Short != "sf9" {
		t.Fatalf("-scale paper -seed 7 resolved to %+v, %v", sc, err)
	}
	parse(t, s.Register, "-scale", "huge")
	if _, _, err := s.Resolve(); err == nil {
		t.Error("unknown -scale resolved")
	}
}

func TestSchedWire(t *testing.T) {
	var s Sched
	fs := parse(t, s.Register)
	sc := harness.QuickScale()
	ctx := context.Background()
	s.Wire(ctx, fs, &sc, nil)
	if sc.Cores != 1 || sc.Sched.Workers != 0 || sc.Sched.Ctx != ctx || sc.Sched.OnPoint != nil {
		t.Errorf("defaults wired cores=%d workers=%d onpoint=%v", sc.Cores, sc.Sched.Workers, sc.Sched.OnPoint != nil)
	}

	// -progress owns the one progress-line format, engine tag and
	// caller suffix included.
	fs = parse(t, s.Register, "-j", "3", "-cores", "2", "-progress")
	var line bytes.Buffer
	fs.SetOutput(&line)
	s.Wire(ctx, fs, &sc, func() string { return " workers=2" })
	if sc.Cores != 2 || sc.Sched.Workers != 3 || sc.Sched.OnPoint == nil {
		t.Fatalf("-j 3 -cores 2 -progress wired cores=%d workers=%d", sc.Cores, sc.Sched.Workers)
	}
	sc.Sched.OnPoint(2, 9, "fig6|x", 1500*time.Microsecond)
	if want := "[2/9] fig6|x (2ms) [engine: 2-core sharded] workers=2\n"; line.String() != want {
		t.Errorf("progress line %q, want %q", line, want)
	}
}

func TestProfileRun(t *testing.T) {
	var p Profile
	parse(t, p.Register)
	boom := errors.New("boom")
	if err := p.Run(func() error { return boom }); err != boom {
		t.Fatalf("no profile flags: Run = %v, want the work's error", err)
	}

	dir := t.TempDir()
	parse(t, p.Register, "-cpuprofile", dir+"/cpu", "-memprofile", dir+"/mem", "-traceprofile", dir+"/trace")
	if err := p.Run(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu", "mem", "trace"} {
		if fi, err := os.Stat(dir + "/" + name); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, size %v", name, err, fi)
		}
	}

	// A trace that cannot start must neither run the work nor leave
	// the CPU profiler on.
	parse(t, p.Register, "-cpuprofile", dir+"/cpu2", "-traceprofile", dir+"/no/such/dir/trace")
	if err := p.Run(func() error { t.Error("work ran"); return nil }); err == nil {
		t.Fatal("Run with an uncreatable trace file succeeded")
	}
	parse(t, p.Register, "-cpuprofile", dir+"/cpu3")
	if err := p.Run(func() error { return nil }); err != nil {
		t.Fatalf("CPU profiler still held after a failed Run: %v", err)
	}
}

// TestParse: flags parse before and after positional arguments, the
// arguments after "--" stay verbatim, -h and -version end the program
// with status 0 (the banner on stdout), and a malformed flag or a
// refused value with status 2 on the FlagSet's output, never an exit.
func TestParse(t *testing.T) {
	var s Sched
	parseArgs := func(args ...string) (*flag.FlagSet, int, bool, string, string) {
		var stdout, stderr bytes.Buffer
		fs := flag.NewFlagSet("prog", flag.ContinueOnError)
		fs.SetOutput(&stderr)
		s.Register(fs)
		status, ok := Parse(fs, args, &stdout, s.Check)
		return fs, status, ok, stdout.String(), stderr.String()
	}
	fs, _, ok, _, _ := parseArgs("-j", "2", "sub", "-progress", "pos", "--", "-j", "-1")
	if !ok || s.Jobs != 2 || !s.Progress || !slices.Equal(fs.Args(), []string{"sub", "pos", "-j", "-1"}) {
		t.Errorf("interspersed flags: ok=%v jobs=%d progress=%v args=%q", ok, s.Jobs, s.Progress, fs.Args())
	}
	if fs, _, ok, _, _ = parseArgs("--", "-j"); !ok || !slices.Equal(fs.Args(), []string{"-j"}) {
		t.Errorf("leading --: ok=%v args=%q", ok, fs.Args())
	}
	for _, c := range []struct {
		args        []string
		status      int
		out, errOut string
	}{
		{[]string{"-version"}, 0, "prog ", ""},
		{[]string{"sub", "-version"}, 0, "prog ", ""},
		{[]string{"-h"}, 0, "", "Usage of prog:\n"},
		{[]string{"-j"}, 2, "", "flag needs an argument: -j\nUsage of prog:\n"},
		{[]string{"sub", "-k"}, 2, "", "flag provided but not defined: -k\nUsage of prog:\n"},
		{[]string{"-j", "-1"}, 2, "", "prog: -j -1: the worker-pool size cannot be negative (0: the CPUs divided by -cores)\n"},
		{[]string{"-cores", "-2"}, 2, "", "prog: -cores -2: the thread count cannot be negative (1: the serial engine)\n"},
	} {
		_, status, ok, out, errOut := parseArgs(c.args...)
		bad := ok || status != c.status || !strings.HasPrefix(out, c.out) || !strings.HasPrefix(errOut, c.errOut)
		if c.errOut == "" || strings.HasPrefix(c.errOut, "prog: ") { // nothing, or the one refusal line
			bad = bad || errOut != c.errOut
		}
		if bad {
			t.Errorf("%q: status %d ok %v, stdout %q, stderr %q; want status %d, stdout starting %q, stderr starting %q",
				c.args, status, ok, out, errOut, c.status, c.out, c.errOut)
		}
	}
	if _, _, _, out, _ := parseArgs("-version"); !strings.Contains(out, "engine schema ") {
		t.Errorf("-version printed %q, want the schema versions", out)
	}
}
