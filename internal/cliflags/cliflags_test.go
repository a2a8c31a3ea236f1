package cliflags

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/harness"
	"diam2/internal/telemetry"
)

// parse declares flags on a fresh flag.CommandLine (Register methods
// declare there) and parses args.
func parse(t *testing.T, register func(), args ...string) {
	t.Helper()
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	register()
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAttach(t *testing.T) {
	var st Store
	parse(t, st.Register)
	sc := harness.QuickScale()
	closeStore, err := st.Attach("test", &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	closeStore()
	if sc.Sched.Store != nil || sc.Sched.Force {
		t.Errorf("no -store: Attach set Store=%v Force=%v, want a no-op", sc.Sched.Store, sc.Sched.Force)
	}

	dir := t.TempDir()
	parse(t, st.Register, "-store", dir, "-force")
	closeStore, err = st.Attach("test", &sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sched.Store == nil || !sc.Sched.Force {
		t.Errorf("-store -force: Attach left Store=%v Force=%v", sc.Sched.Store, sc.Sched.Force)
	}
	// The plain open holds the exclusive lock until the closer runs.
	var other harness.Scale
	if _, err := st.Attach("test", &other, false); err == nil {
		t.Error("a second exclusive open of a held store succeeded")
	}
	closeStore()
	closeStore, err = st.Attach("test", &other, true)
	if err != nil {
		t.Fatalf("reopening after the closer ran: %v", err)
	}
	closeStore()
}

func TestCampaignJoin(t *testing.T) {
	var c Campaign
	parse(t, c.Register)
	if w, err := c.Join("test", t.TempDir(), nil); w != nil || err != nil {
		t.Fatalf("no -campaign: Join = %v, %v, want nil, nil", w, err)
	}

	// /campaign is mounted on the registry's one mux by Join: 404 before,
	// then a fresh campaign.Scan as JSON, listed on the "/" index.
	parse(t, c.Register, "-campaign")
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
	w, err := c.Join("test", storeDir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
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

	parse(t, c.Register, "-campaign", "-worker-id", "w7")
	named, err := c.Join("test", t.TempDir(), nil)
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
	parse(t, func() { tel.Register(true) })
	sc := harness.QuickScale()
	sink, reg, shutdown, err := tel.Setup(&sc, false)
	if err != nil || sink != nil || reg != nil || sc.Telemetry.Sink != nil {
		t.Fatalf("telemetry off: Setup = %v, %v, %v", sink, reg, err)
	}
	shutdown()

	// -http on a campaign worker: endpoints, no collection.
	parse(t, func() { tel.Register(true) }, "-http", "127.0.0.1:0")
	sink, reg, shutdown, err = tel.Setup(&sc, true)
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

	// -heatmap implies collection, and Export writes the file.
	out := t.TempDir() + "/heat.csv"
	parse(t, func() { tel.Register(true) }, "-heatmap", out)
	sink, reg, _, err = tel.Setup(&sc, false)
	if err != nil || sink == nil || reg != nil || sc.Telemetry.Sink != sink || !tel.Collecting() {
		t.Fatalf("-heatmap: Setup = %v, %v, %v", sink, reg, err)
	}
	if err := tel.Export(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("Export wrote no heatmap: %v", err)
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
	parse(t, s.Register)
	sc := harness.QuickScale()
	ctx := context.Background()
	s.Wire(ctx, &sc, nil)
	if sc.Cores != 1 || sc.Sched.Workers != 0 || sc.Sched.Ctx != ctx || sc.Sched.OnPoint != nil {
		t.Errorf("defaults wired cores=%d workers=%d onpoint=%v", sc.Cores, sc.Sched.Workers, sc.Sched.OnPoint != nil)
	}

	// -progress owns the one progress-line format, engine tag and
	// caller suffix included.
	parse(t, s.Register, "-j", "3", "-cores", "2", "-progress")
	s.Wire(ctx, &sc, func() string { return " workers=2" })
	if sc.Cores != 2 || sc.Sched.Workers != 3 || sc.Sched.OnPoint == nil {
		t.Fatalf("-j 3 -cores 2 -progress wired cores=%d workers=%d", sc.Cores, sc.Sched.Workers)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	sc.Sched.OnPoint(2, 9, "fig6|x", 1500*time.Microsecond)
	os.Stderr = saved
	w.Close()
	line, _ := io.ReadAll(r)
	if want := "[2/9] fig6|x (2ms) [engine: 2-core sharded] workers=2\n"; string(line) != want {
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
