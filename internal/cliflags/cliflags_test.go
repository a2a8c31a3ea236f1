package cliflags

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

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

	parse(t, c.Register, "-campaign")
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	status := func() int {
		resp, err := http.Get(srv.URL + "/campaign")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusNotFound {
		t.Fatalf("/campaign before Join answered %d, want 404", got)
	}
	w, err := c.Join("test", t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	host, _ := os.Hostname()
	if want := fmt.Sprintf("%s-%d", host, os.Getpid()); host != "" && w.Owner() != want {
		t.Errorf("default owner %q, want host-pid %q", w.Owner(), want)
	}
	if got := status(); got != http.StatusOK {
		t.Errorf("/campaign after Join answered %d, want 200", got)
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
