package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Registry is a process's one named set of live measurements: workers
// attach a point's collector for the duration of its run, and any
// package adds to a named counter (Add) or a named latency histogram
// (Observe). The registry knows none of the names; its mux serves the
// whole set as JSON at /telemetry.
type Registry struct {
	mu       sync.Mutex
	active   map[*Collector]int64 // collector -> attach order
	nextSeq  int64
	counters map[string]int64
	hists    map[string]*Histogram // milliseconds
	mux      *Mux
}

// obsBucketMS × obsBuckets bound every Observe histogram: 0.25 ms
// resolution up to 2 s. Slower observations still count toward n, mean
// and max; HistSnap clamps their percentiles to the exact max.
const (
	obsBucketMS = 0.25
	obsBuckets  = 8000
)

// NewRegistry creates an empty registry and its observability mux.
func NewRegistry() *Registry {
	r := &Registry{
		active:   make(map[*Collector]int64),
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
		mux:      NewMux(),
	}
	r.mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, r.Snapshot()) })
	r.mux.Handle("/debug/vars", expvar.Handler())
	r.mux.HandleFunc("/debug/pprof/", pprof.Index)
	r.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	r.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	r.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	r.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return r
}

// Add adds delta to the named counter. A nil registry ignores it.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Observe folds one duration, in milliseconds, into the named
// histogram. A nil registry ignores it.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(obsBucketMS, obsBuckets)
		r.hists[name] = h
	}
	h.Add(float64(d) / float64(time.Millisecond))
}

// Attach registers a collector as live.
func (r *Registry) Attach(c *Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[c] = r.nextSeq
	r.nextSeq++
}

// Detach unregisters a collector, folding its totals into the runs.*
// counters.
func (r *Registry) Detach(c *Collector) {
	if r == nil || c == nil {
		return
	}
	s := c.Snapshot(0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[c]; !ok {
		return
	}
	delete(r.active, c)
	r.counters["runs.completed"]++
	r.counters["runs.injected"] += s.Injected
	r.counters["runs.delivered"] += s.Delivered
	r.counters["runs.dropped"] += s.Dropped
	r.counters["runs.link_flits"] += s.LinkFlits
}

// RegistrySnapshot is the /telemetry response body.
type RegistrySnapshot struct {
	Time       string              `json:"time"`
	Active     []*Snapshot         `json:"active"` // live collectors, in attach order
	Counters   map[string]int64    `json:"counters"`
	Histograms map[string]HistSnap `json:"histograms"`
}

// Snapshot captures the live collectors, the counters and the
// histograms.
func (r *Registry) Snapshot() *RegistrySnapshot {
	r.mu.Lock()
	cols := make([]*Collector, 0, len(r.active))
	for c := range r.active {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return r.active[cols[i]] < r.active[cols[j]] })
	out := &RegistrySnapshot{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistSnap, len(r.hists)),
	}
	for name, v := range r.counters {
		out.Counters[name] = v
	}
	for name, h := range r.hists {
		out.Histograms[name] = histSnap(h)
	}
	r.mu.Unlock() // snapshot collectors outside the registry lock
	for _, c := range cols {
		out.Active = append(out.Active, c.Snapshot(0))
	}
	return out
}

// WriteJSON answers v as indented JSON, or 500 when v does not encode.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n')) // a failed write means the client left; nobody to tell
}

// Mux is the observability mux with a self-describing index: every
// route registered through Handle/HandleFunc is remembered, and the
// "/" page enumerates them — a process that mounts extra endpoints
// (the query service's /query, the campaign coordinator's
// /campaign/submit) lists them automatically instead of relying on a
// hand-maintained string going stale.
type Mux struct {
	mu     sync.Mutex
	mux    *http.ServeMux
	routes []string
}

// NewMux returns an empty route-enumerating mux whose "/" index lists
// the registered routes.
func NewMux() *Mux {
	m := &Mux{mux: http.NewServeMux()}
	m.mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "diam2 endpoints:")
		for _, r := range m.Routes() {
			fmt.Fprintln(w, "  "+r)
		}
	})
	return m
}

// Handle registers a handler under pattern and records the pattern for
// the index page.
func (m *Mux) Handle(pattern string, h http.Handler) {
	m.mu.Lock()
	m.routes = append(m.routes, pattern)
	m.mu.Unlock()
	m.mux.Handle(pattern, h)
}

// HandleFunc registers a handler function under pattern and records
// the pattern for the index page.
func (m *Mux) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	m.Handle(pattern, http.HandlerFunc(h))
}

// Routes returns the registered patterns, sorted. The "/" index route
// itself is not listed.
func (m *Mux) Routes() []string {
	m.mu.Lock()
	out := append([]string(nil), m.routes...)
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// ServeHTTP dispatches to the registered handlers.
func (m *Mux) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	m.mux.ServeHTTP(w, req)
}

// Handler returns the registry's one observability mux: /telemetry
// (the JSON snapshot), /debug/vars (the runtime's expvars) and
// /debug/pprof/* (runtime profiles). Every call returns the same mux,
// so endpoints mounted on it — /campaign, the query service's /query —
// are served by Serve and listed on the "/" index.
func (r *Registry) Handler() *Mux { return r.mux }

// Serve starts the observability endpoint on addr (e.g. ":6060") in a
// background goroutine and returns the bound address (useful with
// ":0") and a shutdown function. The server is best-effort: serve
// errors after startup are discarded.
func (r *Registry) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
