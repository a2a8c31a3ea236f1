package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches path from srv and returns the status and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRegistryLifecycle: attach exposes a collector live, detach folds
// its totals into the runs.* counters.
func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	c := NewCollector(Options{Label: "p0"})
	fill(c)
	r.Attach(c)
	s := r.Snapshot()
	if len(s.Active) != 1 || s.Active[0].Label != "p0" {
		t.Fatalf("active = %+v", s.Active)
	}
	if s.Counters["runs.completed"] != 0 {
		t.Errorf("completed = %d before detach", s.Counters["runs.completed"])
	}
	r.Detach(c)
	s = r.Snapshot()
	if len(s.Active) != 0 || s.Counters["runs.completed"] != 1 {
		t.Fatalf("after detach: %d active, counters %v", len(s.Active), s.Counters)
	}
	if s.Counters["runs.delivered"] != 1 || s.Counters["runs.injected"] != 1 || s.Counters["runs.link_flits"] != 8 {
		t.Errorf("counters = %v", s.Counters)
	}
	// Double detach must not double-count.
	r.Detach(c)
	if got := r.Snapshot().Counters["runs.completed"]; got != 1 {
		t.Errorf("double detach counted: completed = %d", got)
	}
	// Nil registry and nil collector are no-ops.
	var nilReg *Registry
	nilReg.Attach(c)
	nilReg.Detach(c)
	r.Attach(nil)
}

// TestRegistryAttachOrder: /telemetry lists active collectors in attach
// order regardless of map iteration.
func TestRegistryAttachOrder(t *testing.T) {
	r := NewRegistry()
	labels := []string{"a", "b", "c", "d", "e"}
	for _, l := range labels {
		c := NewCollector(Options{Label: l})
		c.Shape(1, 1)
		r.Attach(c)
	}
	s := r.Snapshot()
	for i, snap := range s.Active {
		if snap.Label != labels[i] {
			t.Fatalf("slot %d = %q, want %q", i, snap.Label, labels[i])
		}
	}
}

// TestHTTPHandler: the mux serves the JSON registry snapshot, the
// expvar dump, the pprof index, and a root index line.
func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	c := NewCollector(Options{Label: "live"})
	fill(c)
	r.Attach(c)
	srv := httptest.NewServer(r)
	defer srv.Close()

	code, body := get(t, srv, "/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/telemetry status %d", code)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v", err)
	}
	if len(snap.Active) != 1 || snap.Active[0].Label != "live" {
		t.Errorf("snapshot = %+v", snap)
	}

	if code, _ := get(t, srv, "/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status %d", code)
	}
	if code, body := get(t, srv, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "diam2 endpoints") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}
}

// TestIndexListsEveryRoute: the registry's "/" index enumerates every
// route registered on its one mux — the registry's own endpoints and
// anything a caller mounts afterwards — so the page cannot go stale.
func TestIndexListsEveryRoute(t *testing.T) {
	r := NewRegistry()
	r.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {})
	r.HandleFunc("/query/batch", func(w http.ResponseWriter, req *http.Request) {})
	routes := r.Routes()
	for _, want := range []string{"/telemetry", "/debug/vars", "/debug/pprof/", "/query", "/query/batch"} {
		found := false
		for _, got := range routes {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Routes() missing %q: %v", want, routes)
		}
	}

	srv := httptest.NewServer(r)
	defer srv.Close()
	_, body := get(t, srv, "/")
	for _, route := range routes {
		if !strings.Contains(body, route) {
			t.Errorf("index page missing route %q:\n%s", route, body)
		}
	}
}

// TestObserve: named counters and histograms land in the snapshot, and
// out-of-range durations keep it JSON-encodable.
func TestObserve(t *testing.T) {
	r := NewRegistry()
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Errorf("fresh registry holds %v, %v", s.Counters, s.Histograms)
	}
	for i := 0; i < 10; i++ {
		r.Observe("q.fluid", 2*time.Millisecond)
	}
	r.Observe("q.sim", 500*time.Microsecond)
	r.Observe("q.sim", 10*time.Second) // past the histogram range
	r.Add("hits", 2)
	r.Add("hits", 3)
	s := r.Snapshot()
	if got := s.Histograms["q.fluid"]; got.N != 10 || got.Mean < 1.9 || got.Mean > 2.1 || got.P95 < 2 {
		t.Errorf("q.fluid = %+v", got)
	}
	sc := s.Histograms["q.sim"]
	if sc.N != 2 || sc.Max < 9999 || sc.P99 != sc.Max {
		t.Errorf("q.sim = %+v, want p99 clamped to the max", sc)
	}
	if s.Counters["hits"] != 5 {
		t.Errorf("hits = %d, want 5", s.Counters["hits"])
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot not JSON-encodable: %v", err)
	}
	// Nil registry is a no-op.
	var nilReg *Registry
	nilReg.Observe("q.fluid", time.Millisecond)
	nilReg.Add("hits", 1)
}

// TestLatencyOverflowServes: a live collector whose latencies run past
// its histogram's range (retransmission backoff reaches there) still
// marshals, and /telemetry answers 200 rather than 500.
func TestLatencyOverflowServes(t *testing.T) {
	c := NewCollector(Options{Label: "slow"})
	fill(c)
	c.Deliver(250000, 2, 0, 2, 200000, true, 2, 4)
	snap := c.Snapshot()
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	if l := snap.LatencyMinimal; math.IsInf(l.P99, 0) || l.P99 != l.Max {
		t.Errorf("latency = %+v, want p99 clamped to the max", l)
	}
	r := NewRegistry()
	r.Attach(c)
	srv := httptest.NewServer(r)
	defer srv.Close()
	if code, body := get(t, srv, "/telemetry"); code != http.StatusOK {
		t.Errorf("/telemetry status %d: %s", code, body)
	}
}

// TestRegistryConcurrent: counters, histograms, attach/detach and
// snapshots may interleave freely (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := NewCollector(Options{RingEvents: 4})
				fill(c)
				r.Attach(c)
				r.Add("n", 1)
				r.Observe("d", time.Duration(i)*time.Millisecond)
				_ = r.Snapshot()
				r.Detach(c)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if want := int64(goroutines * rounds); s.Counters["n"] != want || s.Histograms["d"].N != want || s.Counters["runs.completed"] != want {
		t.Errorf("counters %v, histogram n %d, want %d each", s.Counters, s.Histograms["d"].N, want)
	}
	if len(s.Active) != 0 {
		t.Errorf("%d collectors still active", len(s.Active))
	}
}

// TestServe: the server binds, announces its address, answers, drains
// once its context is done, and returns a listen failure.
func TestServe(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	addrc, done := make(chan string, 1), make(chan error, 1)
	go func() { done <- r.Serve(ctx, "127.0.0.1:0", time.Second, func(addr string) { addrc <- addr }) }()
	addr := <-addrc
	resp, err := http.Get("http://" + addr + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("drain: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/telemetry"); err == nil {
		t.Error("a drained server still answers")
	}
	err = r.Serve(context.Background(), addr+"x", time.Second, func(string) { t.Error("announced a failed listen") })
	if err == nil || !strings.HasPrefix(err.Error(), "listen "+addr+"x: ") {
		t.Errorf("Serve on a bad address = %v, want the listen error", err)
	}
}

// TestCampaignEndpoint: /campaign answers 404 until a source is mounted
// on the registry's mux, then serves whatever it writes through
// WriteJSON, and the index advertises it.
func TestCampaignEndpoint(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r)
	defer srv.Close()

	if code, _ := get(t, srv, "/campaign"); code != http.StatusNotFound {
		t.Fatalf("/campaign before mounting: status %d, want 404", code)
	}
	r.HandleFunc("/campaign", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, map[string]any{"workers": 3, "leases": []string{"a", "b"}})
	})
	code, body := get(t, srv, "/campaign")
	if code != http.StatusOK {
		t.Fatalf("/campaign status %d", code)
	}
	var got struct {
		Workers int      `json:"workers"`
		Leases  []string `json:"leases"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/campaign not JSON: %v (%q)", err, body)
	}
	if got.Workers != 3 || len(got.Leases) != 2 {
		t.Errorf("/campaign body = %+v", got)
	}
	if _, index := get(t, srv, "/"); !strings.Contains(index, "/campaign") {
		t.Errorf("index does not mention /campaign: %q", index)
	}
}
