package telemetry

import (
	"context"
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

// Registry is a process's one named set of live measurements and its
// one HTTP mux: workers attach a point's collector for the duration of
// its run, and any package adds to a named counter (Add) or a named
// latency histogram (Observe). The registry knows none of the names;
// it serves the whole set as JSON at /telemetry, and every route
// mounted through HandleFunc — the query service's /query, the
// campaign coordinator's /campaign/submit — is listed on its "/" index.
type Registry struct {
	mu       sync.Mutex
	active   map[*Collector]int64 // collector -> attach order
	nextSeq  int64
	counters map[string]int64
	hists    map[string]*Histogram // milliseconds
	mux      *http.ServeMux
	routes   []string // the patterns the "/" index lists
}

// obsBucketMS × obsBuckets bound every Observe histogram: 0.25 ms
// resolution up to 2 s. Slower observations still count toward n, mean
// and max; HistSnap clamps their percentiles to the exact max.
const (
	obsBucketMS = 0.25
	obsBuckets  = 8000
)

// NewRegistry creates an empty registry and mounts /telemetry (the
// JSON snapshot), /debug/vars (the runtime's expvars) and
// /debug/pprof/* (runtime profiles) on its mux.
func NewRegistry() *Registry {
	r := &Registry{
		active:   make(map[*Collector]int64),
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
		mux:      http.NewServeMux(),
	}
	r.mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "diam2 endpoints:")
		for _, route := range r.Routes() {
			fmt.Fprintln(w, "  "+route)
		}
	})
	r.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, r.Snapshot()) })
	r.HandleFunc("/debug/vars", expvar.Handler().ServeHTTP)
	r.HandleFunc("/debug/pprof/", pprof.Index)
	r.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	r.HandleFunc("/debug/pprof/profile", pprof.Profile)
	r.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	r.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
	s := c.Snapshot()
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
		out.Active = append(out.Active, c.Snapshot())
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

// HandleFunc registers a handler function under pattern and lists the
// pattern on the "/" index.
func (r *Registry) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	r.mu.Lock()
	r.routes = append(r.routes, pattern)
	r.mu.Unlock()
	r.mux.HandleFunc(pattern, h)
}

// Routes returns the registered patterns, sorted. The "/" index route
// itself is not listed.
func (r *Registry) Routes() []string {
	r.mu.Lock()
	out := append([]string(nil), r.routes...)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// ServeHTTP dispatches to the registered handlers.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Serve listens on addr, hands the bound address (useful with ":0")
// to ready, and serves the registry's routes until ctx is done. Then it
// drains: the listener closes and in-flight requests get drain to
// finish (http.Server.Shutdown). It returns the error listening,
// serving or draining failed with; a server that fails after startup
// returns at once.
func (r *Registry) Serve(ctx context.Context, addr string, drain time.Duration, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	ready(ln.Addr().String())
	srv := &http.Server{Handler: r}
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	select {
	case err := <-failed:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	err = srv.Shutdown(shutCtx)
	<-failed // http.ErrServerClosed, once Shutdown closed the listener
	return err
}
