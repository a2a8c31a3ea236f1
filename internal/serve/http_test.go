package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"diam2/internal/harness"
	"diam2/internal/telemetry"
)

func newHTTPServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, mod)
	mux := telemetry.NewRegistry()
	s.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return s, hs
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON %v in %s", url, err, body)
	}
	return resp
}

func TestHTTPQuery(t *testing.T) {
	_, hs := newHTTPServer(t, nil)

	var ans Answer
	getJSON(t, hs.URL+"/query?topo=SF(q=5,p=3)&routing=MIN&pattern=WC&load=0.18", &ans)
	if ans.Tier != TierFluid || ans.Estimate == nil {
		t.Fatalf("cold answer: %+v", ans)
	}
	if ans.Escalation == nil || ans.Escalation.Ticket == "" {
		t.Fatalf("no escalation ticket: %+v", ans.Escalation)
	}

	// POST form of the same query is a cache hit now.
	body := strings.NewReader(`{"topo":"SF(q=5,p=3)","routing":"MIN","pattern":"WC","load":0.18}`)
	resp, err := http.Post(hs.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var warm Answer
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if warm.Tier != TierFluidCache && warm.Tier != TierSimCache {
		t.Fatalf("warm tier %q", warm.Tier)
	}

	// Poll the ticket endpoint to done.
	deadline := time.Now().Add(90 * time.Second)
	for {
		var tk Ticket
		getJSON(t, hs.URL+"/ticket/"+ans.Escalation.Ticket, &tk)
		if tk.State == TicketDone {
			if tk.Escalation == nil || tk.Sim.Throughput <= 0 {
				t.Fatalf("done ticket: %+v", tk)
			}
			break
		}
		if tk.State == TicketFailed {
			t.Fatalf("ticket failed: %s", tk.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket stuck in %s", tk.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var list struct {
		Count   int      `json:"count"`
		Tickets []Ticket `json:"tickets"`
	}
	getJSON(t, hs.URL+"/tickets", &list)
	if list.Count != 1 || len(list.Tickets) != 1 {
		t.Fatalf("ticket list: %+v", list)
	}

	// Error surfaces.
	for path, want := range map[string]int{
		"/query?topo=Nope&load=0.5":        http.StatusBadRequest,
		"/query?topo=SF(q=5,p=3)&load=abc": http.StatusBadRequest,
		// NaN passes a naive range check and trailing garbage a
		// scanf-style parse; both must be the client's error.
		"/query?topo=SF(q=5,p=3)&load=NaN":    http.StatusBadRequest,
		"/query?topo=SF(q=5,p=3)&load=Inf":    http.StatusBadRequest,
		"/query?topo=SF(q=5,p=3)&load=0.5abc": http.StatusBadRequest,
		"/ticket/":                            http.StatusBadRequest,
		"/ticket/esc-999999":                  http.StatusNotFound,
		"/query/batch":                        http.StatusMethodNotAllowed,
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestHTTPBatchGrid(t *testing.T) {
	s, hs := newHTTPServer(t, nil)

	// A constrained grid: 1 topo x 1 routing x 1 pattern x 2 loads.
	body := strings.NewReader(`{"grid": {"topos": ["SF(q=5,p=3)"], "routings": ["MIN"], "patterns": ["WC"], "loads": [0.15, 0.18]}}`)
	resp, err := http.Post(hs.URL+"/query/batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.15, 0.18}
	if br.Count != len(loads) || len(br.Answers) != len(loads) {
		t.Fatalf("batch count %d answers %d, want %d", br.Count, len(br.Answers), len(loads))
	}
	for i, ans := range br.Answers {
		if ans.Query.Load != loads[i] {
			t.Errorf("answer %d at load %v, want %v (grid order)", i, ans.Query.Load, loads[i])
		}
		if ans.Estimate == nil {
			t.Errorf("answer %d has no estimate", i)
		}
	}

	// Both SF WC MIN loads sit in the band: two tickets.
	if got := len(s.Tickets()); got != 2 {
		t.Errorf("%d tickets after batch, want 2", got)
	}

	// Empty and oversized batches are client errors.
	for _, bad := range []string{
		`{}`,
		fmt.Sprintf(`{"grid": {"loads": %s}}`, bigLoadsJSON(maxBatch)),
	} {
		resp, err := http.Post(hs.URL+"/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %.40s...: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// countingReader counts the bytes a handler pulled from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestHTTPBodyLimit: a request body past maxBody is the client's error
// on both POST endpoints, and the handler stops reading at the limit
// instead of buffering the whole body.
func TestHTTPBodyLimit(t *testing.T) {
	s := newTestServer(t, nil)
	mux := telemetry.NewRegistry()
	s.Register(mux)
	for _, path := range []string{"/query", "/query/batch"} {
		// One JSON string that does not end within the limit.
		body := &countingReader{r: strings.NewReader(`{"topo":"` + strings.Repeat("x", 4*maxBody))}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("POST %s with a %d-byte body: %d, want 4xx", path, 4*maxBody, rec.Code)
		}
		if body.n > 2*maxBody {
			t.Errorf("POST %s read %d bytes of an oversized body; limit is %d", path, body.n, maxBody)
		}
	}
}

// bigLoadsJSON builds a loads array that overflows maxBatch once
// crossed with the default topo/routing/pattern axes.
func bigLoadsJSON(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.6f", float64(i+1)/float64(n+1))
	}
	b.WriteByte(']')
	return b.String()
}

// TestBatchGridCapBeforeAlloc: a grid past maxBatch is refused before
// any query is built. Thirty entries on each axis is a body under
// 1 KB that names 810 000 queries.
func TestBatchGridCapBeforeAlloc(t *testing.T) {
	s := newTestServer(t, nil)
	g := &BatchGrid{}
	for i := 0; i < 30; i++ {
		name := fmt.Sprint(i)
		g.Topos = append(g.Topos, name)
		g.Routings = append(g.Routings, name)
		g.Patterns = append(g.Patterns, name)
		g.Loads = append(g.Loads, float64(i+1)/31)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.expand(BatchRequest{Grid: g})
	runtime.ReadMemStats(&after)
	var bad *BadQueryError
	if !errors.As(err, &bad) {
		t.Fatalf("30^4 grid: error %v, want BadQueryError", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a 30^4 grid allocated %d bytes, want under 1 MiB", got)
	}
}

// FuzzBatchExpand: expand either refuses a batch or returns exactly
// its explicit queries followed by the grid's cross-product in grid
// order, and never more than maxBatch. An empty axis takes the
// server's default.
func FuzzBatchExpand(f *testing.F) {
	f.Add(uint16(0), false, uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint16(2), true, uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint16(1), true, uint8(30), uint8(30), uint8(30), uint16(30))
	f.Add(uint16(maxBatch), false, uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint16(maxBatch-4), true, uint8(1), uint8(2), uint8(2), uint16(1))
	s := newTestServer(f, nil)
	var presets []string
	for _, p := range s.cfg.Presets {
		presets = append(presets, p.Name)
	}
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprint("n", i)
	}
	loads := make([]float64, 1<<16)
	for i := range loads {
		loads[i] = float64(i)
	}
	orDefault := func(axis, def []string) []string {
		if len(axis) == 0 {
			return def
		}
		return axis
	}
	f.Fuzz(func(t *testing.T, explicit uint16, hasGrid bool, topos, routings, patterns uint8, nLoads uint16) {
		br := BatchRequest{Queries: make([]Query, int(explicit)%(2*maxBatch))}
		for i := range br.Queries {
			br.Queries[i] = Query{Topo: "explicit", Load: float64(i)}
		}
		n := len(br.Queries)
		var tps, rts, pts []string
		var lds []float64
		if hasGrid {
			br.Grid = &BatchGrid{Topos: names[:topos], Routings: names[:routings], Patterns: names[:patterns], Loads: loads[:nLoads]}
			tps, rts, pts = orDefault(br.Grid.Topos, presets), orDefault(br.Grid.Routings, []string{"MIN", "INR"}), orDefault(br.Grid.Patterns, []string{"UNI", "WC"})
			if lds = br.Grid.Loads; len(lds) == 0 {
				lds = harness.ScreenGridLoads(defaultGridLoads)
			}
			n += len(tps) * len(rts) * len(pts) * len(lds)
		}
		got, err := s.expand(br)
		if n == 0 || n > maxBatch {
			if err == nil {
				t.Fatalf("batch of %d accepted (%d queries)", n, len(got))
			}
			return
		}
		if err != nil {
			t.Fatalf("batch of %d refused: %v", n, err)
		}
		want := append([]Query(nil), br.Queries...)
		for _, tp := range tps {
			for _, rt := range rts {
				for _, pt := range pts {
					for _, l := range lds {
						want = append(want, Query{Topo: tp, Routing: rt, Pattern: pt, Load: l})
					}
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch of %d expanded to %d queries, not the explicit list then the grid in order", n, len(got))
		}
	})
}

// FuzzQueryDecode drives /query with arbitrary GET parameter strings
// and POST bodies. The handler must answer 200 or 400, never panic or
// 5xx, and a 200's answer must echo the query as given, with only the
// routing and pattern defaults filled in. Band 0 keeps escalation, and
// with it the simulator, out of the loop.
func FuzzQueryDecode(f *testing.F) {
	s := newTestServer(f, func(c *Config) { c.Band = 0 })
	for _, p := range s.cfg.Presets {
		v := url.Values{"topo": {p.Name}, "routing": {"INR"}, "pattern": {"WC"}, "load": {"0.4"}}
		f.Add(false, v.Encode())
		body, _ := json.Marshal(Query{Topo: p.Name, Load: 0.7})
		f.Add(true, string(body))
	}
	f.Add(false, "topo=nope&load=NaN")
	f.Add(false, "load=%zz&topo")
	f.Add(true, `{"topo":"x","load":1e999}`)
	f.Add(true, `{"load":"0.5"}`)
	f.Add(true, "")
	f.Fuzz(func(t *testing.T, post bool, input string) {
		var want Query
		var parsed bool
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		if post {
			req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(input))
			parsed = json.NewDecoder(strings.NewReader(input)).Decode(&want) == nil
		} else {
			req.URL.RawQuery = input
			v, _ := url.ParseQuery(input)
			want = Query{Topo: v.Get("topo"), Routing: v.Get("routing"), Pattern: v.Get("pattern")}
			parsed = true
			if lv := v.Get("load"); lv != "" {
				var err error
				want.Load, err = strconv.ParseFloat(lv, 64)
				parsed = err == nil
			}
		}
		rec := httptest.NewRecorder()
		s.handleQuery(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("%v %q: status %d: %s", req.Method, input, rec.Code, rec.Body)
		}
		if !parsed {
			t.Fatalf("%v %q: answered 200 to an input that does not parse", req.Method, input)
		}
		if want.Routing == "" {
			want.Routing = "MIN"
		}
		if want.Pattern == "" {
			want.Pattern = "UNI"
		}
		var ans Answer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatalf("%v %q: undecodable answer: %v", req.Method, input, err)
		}
		if ans.Query != want {
			t.Fatalf("%v %q: answer's query %+v, want %+v", req.Method, input, ans.Query, want)
		}
	})
}

// TestHTTPBackpressure: with a single admission slot held by a stalled
// query, the next request bounces with 429 + Retry-After instead of
// queueing without bound.
func TestHTTPBackpressure(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, hs := newHTTPServer(t, func(c *Config) {
		c.QueueMax = 1
		c.Band = 0
	})
	s.onFluidCompute = func() {
		entered <- struct{}{}
		<-release
	}

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/query?topo=OFT(k=6)&load=0.33")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("stalled query finished %d", resp.StatusCode)
			}
		}
		errc <- err
	}()

	<-entered // the slot is held inside the computation
	resp, err := http.Get(hs.URL + "/query?topo=OFT(k=6)&load=0.34")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Slot released: the previously bounced query goes through.
	var ans Answer
	getJSON(t, hs.URL+"/query?topo=OFT(k=6)&load=0.34", &ans)
	if ans.Tier != TierFluid {
		t.Fatalf("post-release tier %q", ans.Tier)
	}
}

// TestGracefulDrain: Shutdown while a query is mid-computation — the
// in-flight response still completes with its full body, matching the
// SIGTERM path in cmd/diam2serve.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Band = 0 })
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.onFluidCompute = func() {
		entered <- struct{}{}
		<-release
	}
	mux := telemetry.NewRegistry()
	s.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	ansc := make(chan Answer, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/query?topo=MLFM(h=6)&load=0.5")
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		var ans Answer
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("in-flight query answered %d during drain", resp.StatusCode)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			errc <- fmt.Errorf("in-flight response truncated: %w", err)
			return
		}
		ansc <- ans
	}()

	<-entered // the query is mid-computation
	shutDone := make(chan error, 1)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutDone <- hs.Config.Shutdown(shutCtx) }()

	// Give Shutdown time to stop accepting, then let the query finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case ans := <-ansc:
		if ans.Estimate == nil || ans.Tier != TierFluid {
			t.Fatalf("drained answer: %+v", ans)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight query never completed")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Close(shutCtx); err != nil {
		t.Fatalf("close: %v", err)
	}
}
